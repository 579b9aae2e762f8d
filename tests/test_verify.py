"""The draws of the ``verify`` checks: trial fields drawn in blocks equal the
fields ``sample_field`` draws one seed at a time, and every check sees the
same sequence of boxes and capacities as when it drew them that way."""

import hashlib

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_capacity import edge_uniforms

from latticeflow import estimators, verify
from latticeflow.capacity import DEFAULT_RESOLUTION, derive_seed, sample_field
from latticeflow.lattice import BoxSpec

R = DEFAULT_RESOLUTION
SEED_EXTREMES = [0, 1, 2**63, 2**64 - 1]
BOXES = st.builds(
    BoxSpec, st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple), st.integers(1, 5)
)


@hypothesis.seed(21)
@settings(max_examples=60, deadline=None)
@given(
    seed=st.sampled_from(SEED_EXTREMES) | st.integers(0, 2**64 - 1),
    boxes=st.lists(BOXES, min_size=0, max_size=24),
    block=st.sampled_from([1, 7, 64, 2**14]),
)
def test_trial_fields_equal_one_seed_sampling(seed, boxes, block):
    """Blocks of every size, a block narrower than one row included, give
    trial t the field of its own sub-seed, the laws cycling as listed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_BLOCK_ELEMENTS", block)
        fields = list(verify._trial_fields(seed, boxes))
    laws = verify._MIXED_DISTRIBUTIONS
    assert len(fields) == len(boxes)
    for t, (box, field) in enumerate(zip(boxes, fields)):
        assert field.box == box and field.resolution == R
        expected = sample_field(box, laws[t % len(laws)], R, derive_seed(seed, t))
        assert np.array_equal(field.caps, expected.caps)


@pytest.mark.parametrize("law", verify._MIXED_DISTRIBUTIONS, ids=lambda law: law.kind)
@pytest.mark.parametrize("seed", SEED_EXTREMES)
def test_trial_fields_of_one_law_equal_one_seed_sampling(law, seed):
    boxes = [BoxSpec((5,), 6), BoxSpec((1,), 1), BoxSpec((2, 3), 4)] * 5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_BLOCK_ELEMENTS", 300)  # three trials a block
        fields = list(verify._trial_fields(seed, boxes, (law,)))
    for t, (box, field) in enumerate(zip(boxes, fields)):
        assert np.array_equal(field.caps, sample_field(box, law, R, derive_seed(seed, t)).caps)


@pytest.mark.parametrize("seed", SEED_EXTREMES)
def test_open_or_shut_law_opens_the_draws_below_one_half(seed):
    """The Menger check's law opens edge i of trial t exactly when draw i
    of sub-seed t is below 1/2."""
    box = BoxSpec((3,), 2)
    fields = verify._trial_fields(seed, [box] * 40, (verify._OPEN_OR_SHUT,))
    for t, field in enumerate(fields):
        u = edge_uniforms(derive_seed(seed, t), box.edge_count)
        assert np.array_equal(field.caps, np.where(u < 0.5, R, 0))


# Each check at the trial count of the benchmark's scale 4, from the seed
# ``run_all`` gives it.
CHECKS = {
    "duality": (verify.check_duality, 101, 200),
    "menger": (verify.check_menger, 102, 160),
    "tau_subadditivity": (verify.check_tau_subadditivity, 103, 400),
    "sandwich": (verify.check_sandwich, 104, 200),
    "junction": (verify.check_junction, 105, 80),
}
# The solver entry points through which the checks see their fields.
HOOKS = ("max_flow", "menger_count", "check_subadditivity", "min_cut_value", "min_cut", "discrete_max_flow_stream")

# Recorded when every field was drawn by ``sample_field`` and every shape by
# ``numpy.random.Generator(Philox(key=seed)).integers``: the first 16 hex
# digits of the SHA-256 of each check's solver calls.
GOLDEN_TRIALS = {
    1: {
        "duality": "d64068e271dc18fb",
        "menger": "2e1e1fb5259e70df",
        "tau_subadditivity": "df845ed2e7f39914",
        "sandwich": "6f1e056d463e0cdc",
        "junction": "153f9b827b298902",
    },
    2029: {
        "duality": "6232a6126e7ef591",
        "menger": "b95a38c61ed39064",
        "tau_subadditivity": "03f8470f74133919",
        "sandwich": "57567d942e72b042",
        "junction": "da95d569020d198d",
    },
}


def _trial_digest(monkeypatch, check, seed: int, trials: int) -> str:
    """Hash the box, resolution and capacities of every field and the other
    arguments of every solver call the check makes, in call order. The
    verify CSV counts only failures, so it cannot see a shifted shape."""
    digest = hashlib.sha256()

    def hooked(name, fn):
        def call(*args):
            for arg in args:
                if hasattr(arg, "caps"):
                    box = arg.box
                    digest.update(repr((name, box.dims, box.height, box.offset, arg.resolution)).encode())
                    digest.update(np.ascontiguousarray(arg.caps, dtype="<i8").tobytes())
                elif not hasattr(arg, "dims"):  # a box is hashed with its field
                    digest.update(repr((name, arg)).encode())
            return fn(*args)

        return call

    for name in HOOKS:
        monkeypatch.setattr(verify, name, hooked(name, getattr(verify, name)))
    result = check(seed, trials)
    monkeypatch.undo()
    assert result.violations == 0
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", CHECKS)
@pytest.mark.parametrize("seed", GOLDEN_TRIALS)
def test_every_trial_sees_the_recorded_box_and_field(monkeypatch, seed, name):
    check, offset, trials = CHECKS[name]
    got = _trial_digest(monkeypatch, check, derive_seed(seed, offset), trials)
    assert got == GOLDEN_TRIALS[seed][name]
