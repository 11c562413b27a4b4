import pytest

from sigtensor import all_words, index_word, word_from_string, word_index, word_to_string


def test_known_indices():
    assert word_index((1, 1), 2) == 0
    assert word_index((2, 1, 1), 2) == 4
    assert index_word(5, 2, 3) == (2, 1, 2)


def test_index_word_bijection():
    for d in range(1, 6):
        for k in range(0, 6):
            for i in range(d**k):
                assert word_index(index_word(i, d, k), d) == i
            words = list(all_words(d, k))
            assert len(words) == d**k
            assert [word_index(w, d) for w in words] == list(range(d**k))


def test_out_of_range():
    with pytest.raises(ValueError):
        word_index((0, 1), 2)
    with pytest.raises(ValueError):
        word_index((3,), 2)
    with pytest.raises(ValueError):
        index_word(8, 2, 3)


def test_string_round_trip():
    assert word_to_string((1, 2, 1), 2) == "121"
    assert word_from_string("121", 2) == (1, 2, 1)
    assert word_from_string("", 3) == ()
    with pytest.raises(ValueError):
        word_from_string("1x", 2)
    with pytest.raises(ValueError):
        word_from_string("13", 2)
    # from d = 10 on, letters are joined by dots so that every word has one text form
    assert word_to_string((1, 2, 9), 9) == "129"
    assert word_to_string((1, 11), 12) == "1.11"
    assert word_to_string((11, 1), 12) == "11.1"
    assert word_to_string((10,), 10) == "10"
    assert word_from_string("1.11", 12) == (1, 11)
    assert word_from_string("10", 10) == (10,)
    assert word_from_string("", 12) == ()
    for bad in ("111", "1.13", "1..2", "1.x", "0.1", "01.2"):
        with pytest.raises(ValueError):
            word_from_string(bad, 12)
