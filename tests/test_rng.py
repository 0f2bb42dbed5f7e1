import numpy as np
import pytest

from graphwhs import rng
from graphwhs.dynamics import SdeConfig, midpoint_step, step
from graphwhs.energies import EnergySpec
from graphwhs.graphs import DensityState, DomainError, Graph, MomentumState
from graphwhs.rng import RngStream, batch_increments, _BRIDGE_SLOTS


def test_prefix_is_stable_under_growth():
    s = RngStream(42, stream_id=7)
    first = s.base_normals(10)
    again = RngStream(42, stream_id=7).base_normals(500)[:10]
    assert np.array_equal(first, again)
    # Growing the cache must not rewrite earlier words.
    assert np.array_equal(s.base_normals(500)[:10], first)


def test_streams_and_seeds_decorrelate():
    a = RngStream(1, 0).base_normals(64)
    b = RngStream(1, 1).base_normals(64)
    c = RngStream(2, 0).base_normals(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_id_validation():
    with pytest.raises(ValueError):
        RngStream(0, stream_id=-1)
    with pytest.raises(ValueError):
        RngStream(0, stream_id=2**63)


def test_batch_rows_match_single_streams_bitwise():
    inc = batch_increments(master_seed=99, n_paths=5, n_steps=12, n_dim=3, dt=0.01,
                           first_stream=2)
    for p in range(5):
        single = batch_increments(99, 1, 12, 3, 0.01, first_stream=2 + p)[0]
        assert np.array_equal(inc[p], single)


def test_coarse_increment_is_sum_of_fine():
    # Same Brownian path seen at two resolutions: the coarse step must be
    # the plain float sum of the four fine steps it covers.
    coarse = batch_increments(7, 1, 5, 2, dt=0.2, substeps=4, first_stream=0)[0]
    fine = batch_increments(7, 1, 20, 2, dt=0.05, substeps=1, first_stream=0)[0]
    assert np.array_equal(coarse, fine.reshape(5, 4, 2).sum(axis=1))


def test_bridge_draws_never_collide_with_base():
    s = RngStream(11, 3)
    base = s.base_normals(6)
    bridge = np.concatenate([s.bridge_normal(0, 0, 3), s.bridge_normal(0, 1, 3)])
    assert not np.array_equal(base, bridge)
    # Deterministic and slot-addressed.
    assert np.array_equal(s.bridge_normal(0, 1, 3), RngStream(11, 3).bridge_normal(0, 1, 3))
    assert not np.array_equal(s.bridge_normal(0, 0, 3), s.bridge_normal(1, 0, 3))
    with pytest.raises(ValueError):
        s.bridge_normal(0, _BRIDGE_SLOTS, 3)


def test_increment_moments():
    inc = batch_increments(0, 200, 50, 1, dt=0.1)
    z = inc.ravel() / np.sqrt(0.1)
    assert abs(z.mean()) < 0.05
    assert abs(z.var() - 1.0) < 0.05


def test_out_of_range_stream_ids_and_indices_are_rejected():
    # Bit 63 of the key marks bridge draws: stream 2**63 would replay
    # stream 0's bridge words as base noise.
    with pytest.raises(ValueError):
        batch_increments(3, 1, 2, 3, 1.0, first_stream=2**63)
    with pytest.raises(ValueError):
        batch_increments(3, 1, 2, 3, 1.0, first_stream=-1)
    s = RngStream(3, 0)
    with pytest.raises(ValueError):
        s.base_normals(3, start=-1)
    with pytest.raises(ValueError):
        s.bridge_normal(-1, 0, 3)
    with pytest.raises(ValueError):
        s.bridge_normal(0, -1, 3)


def test_batch_increments_refuses_bad_counts_before_drawing(monkeypatch):
    # No paths or no steps is an empty draw, not an error.
    assert batch_increments(3, 0, 4, 2, 0.1).shape == (0, 4, 2)
    assert batch_increments(3, 2, 0, 2, 0.1).shape == (2, 0, 2)
    drawn = []
    monkeypatch.setattr(rng, "_words", lambda *args: drawn.append(args))
    bad = [("substeps", 0), ("substeps", -1), ("substeps", 2.5), ("substeps", True),
           ("n_steps", -1), ("n_steps", 4.0), ("n_paths", -1), ("n_paths", True)]
    for name, value in bad:
        args = dict(master_seed=3, n_paths=2, n_steps=4, n_dim=2, dt=0.1, substeps=2)
        with pytest.raises(DomainError, match=name):
            batch_increments(**{**args, name: value})
    assert drawn == []


def test_random_access_reads_match_one_sequential_draw():
    seed, stream = 2**40 + 5, 2**62 + 9
    base = rng._raw_to_normals(rng._philox(seed, stream).random_raw(4000))
    s = RngStream(seed, stream)
    for start in (0, 1, 2, 3, 4, 5, 7, 999, 3001):
        assert np.array_equal(s.base_normals(5, start=start), base[start:start + 5])
    for n_dim in (1, 3):
        k = 1000 if n_dim == 1 else 300
        words = (k * _BRIDGE_SLOTS + 4) * n_dim
        bridge = rng._raw_to_normals(rng._philox(seed, stream, bridge=True).random_raw(words))
        offsets = set()
        for step_index in (0, 1, k):
            for slot in range(4):
                start = (step_index * _BRIDGE_SLOTS + slot) * n_dim
                offsets.add(start % 4)
                got = s.bridge_normal(step_index, slot, n_dim)
                assert np.array_equal(got, bridge[start:start + n_dim])
        assert offsets == {0, 1, 2, 3}


def test_step_reads_its_own_words_far_into_the_stream():
    G = Graph.from_edges(2, [(0, 1, 1.0)])
    cfg = SdeConfig(energy=EnergySpec(graph=G, fisher_coeff=0.125, sigma=np.full(2, 0.1)),
                    T=1.0, dt=1e-3)
    rho0 = DensityState(rho=np.array([0.4, 0.6]))
    x0 = MomentumState(s=np.array([0.3, -0.1]))
    k, n, dt = 10**5, 2, 1e-3
    new_rho, new_s = step(cfg, (rho0, x0), 0.0, dt, RngStream(8, 1), step_index=k)
    dw = np.sqrt(dt) * RngStream(8, 1).base_normals((k + 1) * n)[k * n:]
    ref_rho, ref_s, bad = midpoint_step(cfg.energy, cfg.boundary_floor, rho0.rho[None],
                                        x0.s[None], None, dt, dw[None])
    assert not bad[0]
    assert np.array_equal(new_rho.rho, ref_rho[0])
    assert np.array_equal(new_s.s, ref_s[0])


def test_rescue_cost_does_not_grow_with_step_index(monkeypatch):
    # Counts words, not seconds: a draw at step k must not regenerate the
    # k * 1024 * n_dim words before it.
    produced = []
    make = rng._philox

    class Counting:
        def __init__(self, *args, **kwargs):
            self.gen = make(*args, **kwargs)

        def advance(self, delta):
            self.gen.advance(delta)
            return self

        def random_raw(self, size):
            out = self.gen.random_raw(size)
            produced.append(out.size)
            return out

    monkeypatch.setattr(rng, "_philox", Counting)
    for k in (10, 10**4, 10**6):
        produced.clear()
        xi = RngStream(5, 0).bridge_normal(k, 0, 8)
        assert xi.shape == (8,) and np.isfinite(xi).all()
        assert sum(produced) <= 8 + 3


def test_top_words_map_to_finite_normals():
    # The top 53 bits 2**53 - 1 put u on the tie 1 - 2**-54, which rounds to
    # 1.0; the clamp keeps ndtri finite there and moves no other word.
    from scipy.special import ndtri

    raw = np.array([2**64 - 1, 2**64 - 2048, 0, 2**64 - 2049, 2**63, 12345 << 11],
                   dtype=np.uint64)
    z = rng._raw_to_normals(raw)
    assert np.isfinite(z).all()
    assert z[0] == z[1] == ndtri(np.nextafter(1.0, 0.0)) > 0.0
    plain = ndtri((raw[2:] >> np.uint64(11)) * 2.0**-53 + 2.0**-54)
    assert np.array_equal(z[2:], plain)


# ---------------------------------------------------------------------------
# the numpy inverse CDF against scipy.special.ndtri, bit for bit
# ---------------------------------------------------------------------------

def _scipy_normals(raw):
    from scipy.special import ndtri

    u = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    return ndtri(np.minimum(u, np.nextafter(1.0, 0.0)))


def _assert_same_bits(raw):
    got = rng._raw_to_normals(raw)
    ref = _scipy_normals(raw)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_ndtri_port_matches_scipy_on_random_words():
    _assert_same_bits(rng._philox(2024, 17).random_raw(1_200_000))


def test_ndtri_port_matches_scipy_on_branch_edges():
    # Top-53-bit values k: both ends of the range, and +-5000 around the
    # branch cuts exp(-2) and 1 - exp(-2), the centre 1/2 and the cut
    # exp(-32) between the two tail tables, on either side.
    top = 2**53
    ks = [np.arange(100_000), np.arange(top - 100_000, top)]
    for p in (np.exp(-2.0), 1.0 - np.exp(-2.0), 0.5, np.exp(-32.0), 1.0 - np.exp(-32.0)):
        k = int(p * top)
        ks.append(np.arange(max(k - 5000, 0), min(k + 5000, top)))
    k = np.concatenate(ks).astype(np.uint64)
    raw = (k << np.uint64(11)) | np.uint64(0x5A5)  # the low 11 bits are discarded
    _assert_same_bits(raw)
    # y < exp(-32), i.e. x = sqrt(-2 log y) >= 8, takes the far tail table;
    # only the ~114 words at each end of the range get there.
    u = k * 2.0**-53 + 2.0**-54
    assert (u < np.exp(-32.0)).sum() >= 100
    assert (1.0 - u < np.exp(-32.0)).sum() >= 100


def test_ndtri_port_matches_scipy_on_a_paths_by_words_block():
    # The (paths, words) layout that batch_increments passes.
    raw = np.stack([rng._words(5, p, 0, 3001) for p in range(7)])
    _assert_same_bits(raw)
    assert np.array_equal(rng._raw_to_normals(raw)[3], RngStream(5, 3).base_normals(3001))
