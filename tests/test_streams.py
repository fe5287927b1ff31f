import numpy as np
import pytest

from cvarsearch.streams import as_seed_sequence, candidate_generators, generator, substream

SeedSequence = np.random.SeedSequence

ENTROPIES = [0, 7, 2**32, 2**64 + 5, 2**128 - 1, 2**160 + 3, None]
PATHS = [(), (0,), (1, 2), (1, 5, 0, 7), (2**32, 3), (0, 2**64 + 1, 9)]


def assert_same_stream(got, want):
    np.testing.assert_array_equal(got.pool, want.pool)
    np.testing.assert_array_equal(
        generator(got).standard_normal(5), np.random.default_rng(want).standard_normal(5)
    )


@pytest.mark.parametrize("entropy", ENTROPIES, ids=lambda e: "os" if e is None else hex(e))
@pytest.mark.parametrize("path", PATHS, ids=str)
def test_equals_numpy_spawn_key(entropy, path):
    # None draws fresh OS entropy; the reference reuses the root's
    root = SeedSequence(entropy)
    want = SeedSequence(entropy=root.entropy, spawn_key=path)
    assert_same_stream(substream(root, *path), want)
    for cut in range(len(path) + 1):
        assert_same_stream(substream(substream(root, *path[:cut]), *path[cut:]), want)
    nested = root
    for k in path:
        nested = substream(nested, k)
    assert_same_stream(nested, want)


@pytest.mark.parametrize("path", PATHS, ids=str)
def test_user_sequence_with_its_own_key(path):
    for root in (SeedSequence(99, spawn_key=(3, 4)), SeedSequence([5, 2**40], spawn_key=(2,))):
        want = SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + path)
        assert_same_stream(substream(root, *path), want)


@pytest.mark.parametrize("path", PATHS, ids=str)
def test_substream_is_numpy_construction(path):
    # the child carries the root's entropy and the extended key path
    for root in (SeedSequence(2**70 + 1), SeedSequence([5, 2**40], spawn_key=(3, 4))):
        child = substream(root, *path)
        assert child.entropy == root.entropy
        assert child.spawn_key == root.spawn_key + path


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        SeedSequence(entropy=5, spawn_key=(1, -1))
    with pytest.raises(ValueError):
        substream(SeedSequence(5), 1, -1)
    with pytest.raises(ValueError):
        substream(substream(SeedSequence(5), 1), -1)


def assert_candidates_match(root, key, first, count):
    # each batched stream is checked before the next item resets it
    got = 0
    for i, rng in enumerate(candidate_generators(root, key, first, count)):
        want = generator(substream(root, *key, first + i))
        assert rng.bit_generator.state == want.bit_generator.state
        np.testing.assert_array_equal(rng.standard_normal(5), want.standard_normal(5))
        got += 1
    assert got == count


@pytest.mark.parametrize("entropy", ENTROPIES, ids=lambda e: "os" if e is None else hex(e))
@pytest.mark.parametrize("path", PATHS, ids=str)
def test_candidate_generators_equal_substream(entropy, path):
    root = SeedSequence(entropy)
    assert_candidates_match(root, path, 0, 3)
    # a batch large enough to be hashed as arrays
    assert_candidates_match(root, path, 7, 40)


@pytest.mark.parametrize("path", PATHS, ids=str)
def test_candidate_generators_user_sequence_with_its_own_key(path):
    for root in (SeedSequence(99, spawn_key=(3, 4)), SeedSequence([5, 2**40], spawn_key=(2,))):
        assert_candidates_match(root, path, 0, 3)
        assert_candidates_match(root, path, 5, 20)


@pytest.mark.parametrize("count", [4, 40])
def test_candidate_index_run_ending_at_two_to_the_32(count):
    # the last index is 2**32 - 1, the largest one-word index
    assert_candidates_match(SeedSequence(42), (1, 3), 2**32 - count, count)


@pytest.mark.parametrize("count", [4, 40])
def test_candidate_index_run_crossing_two_to_the_32_rejected(count):
    # refused at the call, before any stream is yielded
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        candidate_generators(SeedSequence(42), (1, 3), 2**32 - count // 2, count)


@pytest.mark.parametrize("count", [0, 1])
def test_candidate_generators_small_counts(count):
    assert_candidates_match(SeedSequence(42), (1, 3), 9, count)


def test_candidate_generators_refuse_negative_first_and_key():
    with pytest.raises(ValueError):
        candidate_generators(SeedSequence(5), (1,), -1, 3)
    with pytest.raises(ValueError):
        candidate_generators(SeedSequence(5), (1, -1), 0, 3)


@pytest.mark.skipif(not hasattr(np.random.BitGenerator, "spawn"),
                    reason="BitGenerator.spawn needs numpy >= 1.25")
def test_candidate_generator_cannot_spawn():
    rng = next(candidate_generators(SeedSequence(5), (1,), 0, 1))
    with pytest.raises(TypeError):
        rng.bit_generator.spawn(1)


def test_float_seed_and_key_rejected():
    # a float is refused, never truncated to its integer part
    with pytest.raises(TypeError):
        as_seed_sequence(2.7)
    with pytest.raises(TypeError):
        substream(SeedSequence(5), 1, 1.5)
    with pytest.raises(TypeError):
        candidate_generators(SeedSequence(5), (1.5,), 0, 3)


def test_numpy_integer_seed_and_key_accepted():
    assert as_seed_sequence(np.int64(2)).entropy == 2
    assert_same_stream(substream(SeedSequence(5), np.int64(1), np.uint32(4)),
                       substream(SeedSequence(5), 1, 4))
    assert_candidates_match(SeedSequence(5), (np.int64(1),), 0, 3)
