"""Tests for seeded named RNG streams."""

from repro.sim import SeedSequenceRegistry


def test_same_name_same_stream_object():
    reg = SeedSequenceRegistry(root_seed=7)
    assert reg.stream("a") is reg.stream("a")


def test_same_seed_reproducible_across_registries():
    a = SeedSequenceRegistry(root_seed=7).stream("jitter")
    b = SeedSequenceRegistry(root_seed=7).stream("jitter")
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


def test_different_names_independent():
    reg = SeedSequenceRegistry(root_seed=7)
    xs = [reg.stream("x").uniform() for _ in range(5)]
    ys = [reg.stream("y").uniform() for _ in range(5)]
    assert xs != ys


def test_different_roots_differ():
    a = SeedSequenceRegistry(root_seed=1).stream("s")
    b = SeedSequenceRegistry(root_seed=2).stream("s")
    assert a.uniform() != b.uniform()


def test_lognormal_around_positive_and_centered():
    stream = SeedSequenceRegistry(0).stream("jit")
    draws = [stream.lognormal_around(100.0, 0.05) for _ in range(200)]
    assert all(d > 0 for d in draws)
    mean = sum(draws) / len(draws)
    assert 90.0 < mean < 110.0


def test_lognormal_around_zero_center():
    stream = SeedSequenceRegistry(0).stream("z")
    assert stream.lognormal_around(0.0) == 0.0


def test_choice_and_integers_in_range():
    stream = SeedSequenceRegistry(3).stream("c")
    seq = ["a", "b", "c"]
    for _ in range(20):
        assert stream.choice(seq) in seq


def test_shuffle_is_permutation():
    stream = SeedSequenceRegistry(3).stream("sh")
    items = list(range(20))
    shuffled = items[:]
    stream.shuffle(shuffled)
    assert sorted(shuffled) == items
