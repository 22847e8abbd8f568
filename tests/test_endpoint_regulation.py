import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frenetplan.endpoint_regulation import (
    RegulationConfig,
    _terminal_order,
    enforce_spacing,
    regulated_cluster,
    select_reference_candidate,
    sort_by_terminal,
    terminal_deviation,
)
from frenetplan.errors import EmptyCluster
from frenetplan.evaluation import nn_distance_stats
from frenetplan.frenet_geometry import FrenetState
from frenetplan.momentum_optimizer import OptimizerConfig, optimize_cluster
from frenetplan.quintic_sampling import (
    SamplingGrid,
    TrajectoryCluster,
    generate_cluster,
)

from conftest import make_candidate, make_context, straight_path


def cluster_of(candidates, initial=None):
    initial = initial or candidates[0].initial
    return TrajectoryCluster(candidates=list(candidates), reference_index=0, initial=initial)


def with_terminal(speed=1.0, offset=0.0, accel=0.0, lat_rate=0.0, lat_accel=0.0):
    """Candidate whose terminal row is set directly (for energy arithmetic)."""
    cand = make_candidate(terminal_speed=max(speed, 0.2), offset=offset)
    cand.states[-1] = [cand.states[-1, 0], speed, accel, offset, lat_rate, lat_accel]
    return cand


def test_reference_single_candidate():
    cluster = cluster_of([make_candidate()])
    assert select_reference_candidate(cluster) == 0


def test_reference_prefers_centered_offset():
    cands = [make_candidate(offset=o) for o in (-1.0, 0.0, 1.0)]
    assert select_reference_candidate(cluster_of(cands)) == 1


def test_reference_median_tie_goes_to_smaller_index():
    # speeds {0.8, 1.0, 1.2, 1.4}: median 1.1, candidates at 1.0 and 1.2 tie
    cands = [with_terminal(speed=v) for v in (0.8, 1.0, 1.2, 1.4)]
    assert select_reference_candidate(cluster_of(cands)) == 1


def test_energy_examples():
    ref = with_terminal(speed=1.0)
    unit = with_terminal(speed=2.0)
    assert list(terminal_deviation([ref, unit], ref, 1.0)) == [0.0, 1.0]
    assert list(terminal_deviation([ref, unit], ref, 4.0)) == [0.0, 4.0]
    # no reference, no term
    assert list(terminal_deviation([ref, unit], None, 4.0)) == [0.0, 0.0]
    # only the terminal speed is weighed: the sampler ends every candidate
    # with zero terminal acceleration and lateral rates
    unsteady = with_terminal(speed=2.0, accel=1.0, lat_rate=0.5, lat_accel=0.5)
    assert terminal_deviation([unsteady], ref, 4.0)[0] == 4.0


def test_energy_scaling_and_argmin_invariance():
    rng = np.random.default_rng(9)
    ref = with_terminal(speed=1.0, lat_rate=0.1)
    cands = [
        with_terminal(
            speed=float(rng.uniform(0.5, 1.5)),
            accel=float(rng.uniform(-0.5, 0.5)),
            lat_rate=float(rng.uniform(-0.3, 0.3)),
            lat_accel=float(rng.uniform(-0.3, 0.3)),
        )
        for _ in range(12)
    ]
    e_base = terminal_deviation(cands, ref, 1.0)
    e_scaled = terminal_deviation(cands, ref, 9.0)
    assert np.allclose(e_scaled, 9.0 * e_base, rtol=1e-12)
    assert int(np.argmin(e_base)) == int(np.argmin(e_scaled))
    assert min(e_base) >= 0.0


def _spacing_inputs(offsets, speeds=(1.0,), horizons=(2.0,)):
    path = straight_path(30.0)
    initial = FrenetState(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    grid = SamplingGrid(speeds, offsets, horizons, 0.05)
    return sort_by_terminal(generate_cluster(initial, path, grid)), grid


def test_spacing_leaves_satisfied_cluster_alone():
    cluster, grid = _spacing_inputs(offsets=(0.0, 0.2, 0.4))
    config = RegulationConfig(max_gap=0.5, min_gap=0.02)
    out = enforce_spacing(cluster, config, grid)
    assert len(out.candidates) == len(cluster.candidates)
    assert np.array_equal(out.terminals, cluster.terminals)


def test_spacing_removes_duplicates():
    cluster, grid = _spacing_inputs(offsets=(0.0, 0.0, 0.5))
    config = RegulationConfig(max_gap=0.6, min_gap=0.01)
    out = enforce_spacing(cluster, config, grid)
    assert len(out.candidates) == 2


def test_spacing_inserts_interpolated_candidates():
    cluster, grid = _spacing_inputs(offsets=(0.0, 1.0))
    config = RegulationConfig(max_gap=0.3, min_gap=0.02)
    out = enforce_spacing(cluster, config, grid)
    # ceil(1.0 / 0.3) - 1 = 3 insertions
    assert len(out.candidates) == 5
    gaps = np.linalg.norm(np.diff(out.terminals, axis=0), axis=1)
    assert np.all(gaps <= 0.3 + 1e-12)
    assert not out.spacing_budget_exhausted


def test_spacing_budget_flag():
    cluster, grid = _spacing_inputs(offsets=(0.0, 8.0))
    config = RegulationConfig(max_gap=0.5, min_gap=0.02)
    out = enforce_spacing(cluster, config, grid)
    assert out.spacing_budget_exhausted
    # budget of 8 insertions for the one oversized gap
    assert len(out.candidates) == 10


def test_spacing_postcondition_and_idempotence():
    rng = np.random.default_rng(21)
    path = straight_path(40.0)
    config = RegulationConfig(max_gap=0.6, min_gap=0.1)
    for _ in range(30):
        initial = FrenetState(1.0, float(rng.uniform(0.7, 1.2)), 0.0,
                              float(rng.uniform(-0.2, 0.2)), 0.0, 0.0)
        grid = SamplingGrid(
            tuple(np.sort(rng.uniform(0.6, 1.4, size=3))),
            tuple(np.sort(rng.uniform(-0.8, 0.8, size=4))),
            (2.0, 3.0),
            0.05,
        )
        cluster = sort_by_terminal(generate_cluster(initial, path, grid))
        out = enforce_spacing(cluster, config, grid)
        gaps = np.linalg.norm(np.diff(out.terminals, axis=0), axis=1)
        if not out.spacing_budget_exhausted:
            assert np.all(gaps >= config.min_gap - 1e-12)
            assert np.all(gaps <= config.max_gap + 1e-12)
            again = enforce_spacing(out, config, grid)
            assert len(again.candidates) == len(out.candidates)
            assert np.array_equal(again.terminals, out.terminals)


# terminal d and speed values with exact ties, both signs of zero and
# neighbours of zero, mixed with arbitrary finite floats
_KEY_VALUES = st.one_of(
    st.sampled_from((-1.0, -0.0, 0.0, 5e-324, -5e-324, 0.25, 1.0)),
    st.floats(-2.0, 2.0, width=64),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(keys=st.lists(st.tuples(_KEY_VALUES, _KEY_VALUES), min_size=1, max_size=40))
def test_terminal_order_is_sorted_over_the_key_tuples(keys):
    # the stable lexsort that orders a cluster gives sorted()'s order over
    # the (d, s_dot) tuples of the terminal rows: -0.0 ties 0.0, and tied
    # rows keep their input order
    terms = np.zeros((len(keys), 6))
    terms[:, 3], terms[:, 1] = np.array(keys).T
    want = sorted(range(len(keys)), key=lambda i: (terms[i, 3], terms[i, 1]))
    assert _terminal_order(terms).tolist() == want


def test_empty_cluster_raises():
    with pytest.raises(EmptyCluster):
        select_reference_candidate(
            TrajectoryCluster(candidates=[], reference_index=0,
                              initial=FrenetState(0, 0, 0, 0, 0, 0))
        )


def test_regulated_single_cell():
    path = straight_path(30.0)
    initial = FrenetState(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    grid = SamplingGrid((1.0,), (0.0,), (2.0,), 0.05)
    config = RegulationConfig()
    cluster = regulated_cluster(initial, path, grid, config)
    assert len(cluster.candidates) == 1
    assert cluster.reference_index == 0


def test_regulated_offset_row_respects_bounds():
    path = straight_path(30.0)
    initial = FrenetState(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    grid = SamplingGrid((1.0,), tuple(np.linspace(-1, 1, 8)), (2.0,), 0.05)
    config = RegulationConfig(max_gap=0.5, min_gap=0.02)
    cluster = regulated_cluster(initial, path, grid, config)
    gaps = np.linalg.norm(np.diff(cluster.terminals, axis=0), axis=1)
    assert np.all(gaps <= config.max_gap + 1e-12)
    assert np.all(gaps >= config.min_gap - 1e-12)


def test_regulation_lowers_nn_dispersion():
    # per-seed, suite-aggregated within-cluster nearest-neighbor std:
    # regulated beats raw on >= 18/20 seeds
    from frenetplan.scenarios import BUILDERS

    wins = 0
    for seed in range(20):
        raw_stds, reg_stds = [], []
        for builder in BUILDERS.values():
            scn = builder(seed=seed, n_cycles=3)
            path = scn.build_path()
            for k in range(5):
                grid = scn.grid.jittered(np.random.default_rng([scn.sim.seed, k]))
                raw = generate_cluster(scn.initial_state, path, grid)
                reg = regulated_cluster(scn.initial_state, path, grid, scn.regulation)
                raw_stds.append(nn_distance_stats(raw).nn_std)
                reg_stds.append(nn_distance_stats(reg).nn_std)
        wins += np.mean(reg_stds) < np.mean(raw_stds)
    assert wins >= 18


def test_config_validation():
    with pytest.raises(ValueError):
        RegulationConfig(max_gap=0.5, min_gap=-0.02)
    with pytest.raises(ValueError):
        RegulationConfig(max_gap=float("nan"), min_gap=0.02)
    with pytest.raises(ValueError):
        RegulationConfig(max_gap=0.02, min_gap=0.5)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    initial=st.builds(
        FrenetState, st.floats(1.0, 3.0), st.floats(0.2, 1.4), st.floats(-0.5, 0.5),
        st.floats(-0.4, 0.4), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
    ),
    speeds=st.lists(st.floats(0.1, 1.5), min_size=1, max_size=3),
    offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
    horizons=st.lists(st.sampled_from((1.0, 2.0, 3.0)), min_size=1, max_size=2, unique=True),
    max_gap=st.floats(0.15, 0.8),
)
def test_every_candidate_ends_steady(initial, speeds, offsets, horizons, max_gap):
    # terminal_deviation weighs only the terminal speed because of this
    path = straight_path(30.0)
    grid = SamplingGrid(tuple(speeds), tuple(offsets), tuple(horizons), 0.05)
    config = RegulationConfig(max_gap=max_gap, min_gap=0.02)
    try:
        raw = generate_cluster(initial, path, grid)
    except EmptyCluster:
        assume(False)
    regulated = regulated_cluster(initial, path, grid, config)
    reference = regulated.candidates[regulated.reference_index]
    refined = optimize_cluster(
        regulated.candidates, make_context(path), reference, OptimizerConfig(max_iters=2)
    )
    for origin, cands in (("sampled", raw.candidates), ("regulated", regulated.candidates),
                          ("refined", refined)):
        for cand in cands:
            assert np.all(cand.states[-1, [2, 4, 5]] == 0.0), (
                f"{origin} candidate {cand.grid_key} ends with terminal s_ddot, d_dot, "
                f"d_ddot = {cand.states[-1, [2, 4, 5]]}; terminal_deviation weighs only "
                "the terminal speed, so restore the schema 1 weights of these terms "
                "together with any sampler that makes them nonzero"
            )
