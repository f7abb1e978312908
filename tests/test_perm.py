import operator
import random

import pytest

from autgrammar.perm import (
    PermError,
    Permutation,
    Word,
    compose,
    format_permutation,
    identity,
    inverse,
    parse_permutation,
    permute_word,
    to_string_word,
)


def test_not_a_bijection():
    with pytest.raises(PermError):
        Permutation((1, 1, 3))


def test_compose():
    b = Permutation((2, 1, 3))
    g = Permutation((1, 3, 2))
    assert compose(b, g) == Permutation((2, 3, 1))
    assert compose(identity(3), g) == g
    assert compose(Permutation((2, 3, 1)), Permutation((3, 1, 2))) == identity(3)


def test_compose_size_mismatch():
    with pytest.raises(PermError):
        compose(identity(2), identity(3))


def test_inverse():
    assert inverse(Permutation((2, 3, 1))) == Permutation((3, 1, 2))
    assert inverse(identity(4)) == identity(4)
    t = Permutation((2, 1, 3, 4))
    assert inverse(t) == t


def test_to_string_word():
    assert to_string_word(identity(4)) == Word((1, 2, 3, 4))
    assert to_string_word(Permutation((2, 1, 4, 3))) == Word((2, 1, 4, 3))
    assert to_string_word(Permutation((1,))) == Word((1,))


def test_permute_word():
    assert permute_word(Word((5, 6, 7, 8)), Permutation((2, 1, 4, 3))) == Word((6, 5, 8, 7))
    assert permute_word(Word((9, 8, 7)), identity(3)) == Word((9, 8, 7))
    assert permute_word(Word((1, 2, 3)), Permutation((3, 1, 2))) == Word((3, 1, 2))


def test_permute_word_length_mismatch():
    with pytest.raises(PermError):
        permute_word(Word((1, 2)), identity(3))


def test_permute_compose_law():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 8)
        a = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        b = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        w = Word(tuple(rng.randint(1, 99) for _ in range(n)))
        assert permute_word(w, compose(a, b)) == permute_word(permute_word(w, a), b)
        assert permute_word(permute_word(w, a), inverse(a)) == w


def test_compose_associative():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 7)
        ps = [Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(3)]
        assert compose(compose(*ps[:2]), ps[2]) == compose(ps[0], compose(*ps[1:]))


def test_to_string_injective():
    seen = set()
    import itertools

    for img in itertools.permutations(range(1, 5)):
        w = to_string_word(Permutation(img))
        assert w not in seen
        seen.add(w)


def test_word_permutation_conversion():
    # a word reads as a permutation through its symbols, and one that is
    # not a permutation raises
    assert Permutation(Word((2, 1, 3)).symbols) == Permutation((2, 1, 3))
    with pytest.raises(PermError):
        Permutation(Word((1, 1)).symbols)


def test_text_round_trip():
    p = parse_permutation("2 1 4 3")
    assert p == Permutation((2, 1, 4, 3))
    assert format_permutation(p) == "2 1 4 3"


def test_records_read_lists_as_tuples():
    # a list where the tuple belongs is held as a tuple: the record hashes,
    # equals its tuple twin, and sorts among records given tuples
    listed, twin = Permutation([2, 1, 3]), Permutation((2, 1, 3))
    assert listed.image == (2, 1, 3) and listed == twin and hash(listed) == hash(twin)
    assert Word([2]) == Word((2,)) and hash(Word([2])) == hash(Word((2,)))
    assert sorted([Word([2]), Word((1,))]) == [Word((1,)), Word((2,))]
    assert repr(Word([2])) == "Word((2,))"


def test_records_hash_compare_and_sort_as_tuples():
    rng = random.Random(5)
    images = [tuple(rng.sample(range(1, 5), 4)) for _ in range(40)]
    assert [p.image for p in sorted(map(Permutation, images))] == sorted(images)
    symbols = [tuple(rng.choices(range(1, 4), k=rng.randrange(4))) for _ in range(40)]
    assert [w.symbols for w in sorted(map(Word, symbols))] == sorted(symbols)
    a, b = Permutation((1, 2, 3)), Permutation((1, 3, 2))
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a and not a < a
    assert hash(a) == hash(((1, 2, 3),)) and hash(Word((1, 3))) == hash(((1, 3),))
    assert repr(a) == "Permutation((1, 2, 3))" and repr(Word((1, 3))) == "Word((1, 3))"
    # a permutation is neither its word nor its tuple
    assert a != Word((1, 2, 3)) and a != (1, 2, 3)
    with pytest.raises(TypeError):
        a < Word((1, 3, 2))


def test_records_of_two_types_do_not_order():
    # every comparison, not only <, refuses a Permutation against a Word
    a, w = Permutation((1, 2, 3)), Word((1, 2, 3))
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(a, w)
        with pytest.raises(TypeError):
            compare(w, a)
