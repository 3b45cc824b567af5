import inspect
from fractions import Fraction as F

import pytest

from cubicontact import cubic, moment, nilpotent
from cubicontact.catalog import catalog_get
from cubicontact.contact import AssumptionError, ChartPoint, sample_chart_point
from cubicontact.cubic import (
    DimensionMismatchError,
    ReductionError,
    SymCubic,
    polarize,
    reduce_mod,
    trilinear,
)
from cubicontact.extraction import extraction
from cubicontact.moment import (
    MomentPoint,
    boundary_report,
    moment_membership,
    moment_of,
    moment_point_at,
    moment_point_closed_form,
    smoothness_probe,
)
from cubicontact.nilpotent import NElem, SlWElem, basis_element, n_dim
from cubicontact.reports import RunConfig
from cubicontact.verify import run_verification
from cubicontact.scalars import Q0
from cubicontact.sampling import SeededSampler

X3 = SymCubic(1, {(0, 0, 0): 1})
FERMAT3 = SymCubic(3, {(i, i, i): 1 for i in range(3)})


def test_membership_zero_triple():
    m = MomentPoint.from_parts(((F(0), F(0)),), (F(0),), (F(0), F(0)))
    assert moment_membership(m, X3)


def test_membership_hand_true_case():
    # phi1 with f1 column -1, phi2 = 1, phi3 = f2 contracts to B(1,1).
    m = MomentPoint.from_parts(((F(-1), F(0)),), (F(1),), (F(0), F(1)))
    assert moment_membership(m, X3)


def test_membership_hand_false_case():
    m = MomentPoint.from_parts(((F(0), F(0)),), (F(1),), (F(0), F(0)))
    assert not moment_membership(m, X3)


def test_moment_of_central_generators_at_base():
    for y in (F(1), F(3), F(-2)):
        pt = ChartPoint.base(1, y)
        f1 = NElem.from_parts(1, n3=(F(1), F(0)))
        f2 = NElem.from_parts(1, n3=(F(0), F(1)))
        assert moment_of(pt, f1, X3) == 0
        assert moment_of(pt, f2, X3) == y


def test_moment_functions_refuse_before_contracting(monkeypatch):
    """moment_point_at, moment_point_closed_form and moment_of refuse a
    point of another dimension (DimensionMismatchError), y = 0 (a plain
    ValueError) and a cubic with b_rank < p (AssumptionError), before
    any contraction; moment_of also refuses an NElem of another
    dimension and a generator of neither kind."""
    det3 = catalog_get("det3").tensor()
    low_rank = SymCubic(2, {(0, 0, 0): 1})
    sampler = SeededSampler(37)
    good = sample_chart_point(sampler, 9)
    zero_y = ChartPoint(good.chart, good.z, F(0))
    cases = [
        (sample_chart_point(sampler, 2), det3, DimensionMismatchError),
        (sample_chart_point(sampler, 12), det3, DimensionMismatchError),
        (zero_y, det3, ValueError),
        (sample_chart_point(sampler, 2), low_rank, AssumptionError),
    ]
    walks = []
    for mod in (moment, nilpotent):
        monkeypatch.setattr(mod, "contract_cleared", lambda *args: walks.append(args))
    for pt, T, error in cases:
        calls = [
            lambda: moment_point_at(pt, T),
            lambda: moment_point_closed_form(pt, T),
            lambda: moment_of(pt, basis_element(T.dim, 0), T),
            lambda: moment_of(pt, SlWElem.of(1, 2, 3), T),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is error
    with pytest.raises(DimensionMismatchError):
        moment_of(good, basis_element(8, 0), det3)
    with pytest.raises(TypeError):
        moment_of(good, (F(1),) * n_dim(9), det3)
    assert not walks


def test_moment_of_linear_in_generator():
    sampler = SeededSampler(31)
    T = FERMAT3
    pt = sample_chart_point(sampler, 3)
    basis = [basis_element(3, i) for i in range(n_dim(3))]
    for _ in range(5):
        coeffs = [sampler.fraction() for _ in basis]
        combo = NElem.zero(3)
        expected = F(0)
        for c, b in zip(coeffs, basis):
            combo = combo + c * b
            expected += c * moment_of(pt, b, T)
        assert moment_of(pt, combo, T) == expected
    # and over sl(W)
    g1, g2 = SlWElem.of(1, 0, 0), SlWElem.of(0, 1, 2)
    for c in (F(2), F(-1, 3)):
        combo = SlWElem.of(
            g1.mat[0][0] * c + g2.mat[0][0],
            g1.mat[0][1] * c + g2.mat[0][1],
            g1.mat[1][0] * c + g2.mat[1][0],
        )
        assert moment_of(pt, combo, T) == c * moment_of(pt, g1, T) + moment_of(
            pt, g2, T
        )


@pytest.mark.parametrize("name", ["x3", "xyz", "fermat3", "det-sym-3"])
def test_assembled_moment_membership(name):
    T = catalog_get(name).tensor()
    sampler = SeededSampler(33)
    for _ in range(15):
        pt = sample_chart_point(sampler, T.dim)
        m = moment_point_at(pt, T)
        assert moment_membership(m, T)
        assert m.phi3[0] or m.phi3[1]


def test_assembled_moment_known_components():
    # At the base point with fiber y: phi2 = y x1 = 0, phi3 = y f1.
    pt = ChartPoint.base(1, F(5))
    m = moment_point_at(pt, X3)
    assert m.phi2 == (F(0),)
    assert m.phi3 == (F(5), F(0))


CATALOG = (
    "x3", "xq5", "xyz", "fermat3", "det-sym-3", "det3", "pfaff6", "j3o-norm",
)


def _moment_point_by_basis_loop(pt, T):
    """Reference: one moment_of call per basis element of n."""
    p = T.dim
    mu1 = []
    for k in range(p):
        row = []
        for col in (0, 1):
            unit = [F(1) if i == k else Q0 for i in range(p)]
            zero = [Q0] * p
            basis = NElem.from_parts(
                p,
                col1=unit if col == 0 else zero,
                col2=unit if col == 1 else zero,
            )
            row.append(moment_of(pt, basis, T))
        mu1.append(row)
    mu2 = [
        moment_of(
            pt, NElem.from_parts(p, n2=[F(i == k) for i in range(p)]), T
        )
        for k in range(p)
    ]
    mu3 = [
        moment_of(pt, NElem.from_parts(p, n3=(1, 0)), T),
        moment_of(pt, NElem.from_parts(p, n3=(0, 1)), T),
    ]
    return MomentPoint.from_parts(
        phi1=tuple((-2 * mu1[k][1], 2 * mu1[k][0]) for k in range(p)),
        phi2=tuple(mu2),
        phi3=(mu3[1], -mu3[0]),
    )


@pytest.mark.parametrize("name", CATALOG)
def test_moment_point_matches_basis_loop(name):
    T = catalog_get(name).tensor()
    sampler = SeededSampler(34)
    for _ in range(1 if T.dim > 15 else 3):
        pt = sample_chart_point(sampler, T.dim)
        m = moment_point_at(pt, T)
        assert m == _moment_point_by_basis_loop(pt, T)
        parts = [c for row in m.phi1 for c in row] + list(m.phi2 + m.phi3)
        assert all(type(c) is F for c in parts)


@pytest.mark.parametrize("name", [n for n in CATALOG if n != "j3o-norm"])
def test_moment_point_matches_closed_form(name):
    T = catalog_get(name).tensor()
    sampler = SeededSampler(35)
    for _ in range(3):
        pt = sample_chart_point(sampler, T.dim)
        assert moment_point_at(pt, T) == moment_point_closed_form(pt, T)


def _flipped_half_bracket_covector():
    """moment._moment_covector with the sign of phi's 1/2 xi o ad_X term
    flipped: theta~ pulled back along exp_diff(X, A) in place of
    exp_diff(-X, A), which differ only there, the 1/12 [X, [X, A]] term
    being even in X.
    """
    src = inspect.getsource(moment._moment_covector)
    term = "- 6 * h * b"
    assert src.count(term) == 1
    namespace = dict(vars(moment))
    exec(src.replace(term, "+ 6 * h * b"), namespace)
    return namespace["_moment_covector"]


@pytest.mark.parametrize("name", ["xyz", "det3"])
def test_closed_form_catches_flipped_half_bracket(name, monkeypatch):
    T = catalog_get(name).tensor()
    pt = sample_chart_point(SeededSampler(36), T.dim)
    assert moment_point_at(pt, T) == moment_point_closed_form(pt, T)
    monkeypatch.setattr(moment, "_moment_covector", _flipped_half_bracket_covector())
    assert moment_point_at(pt, T) != moment_point_closed_form(pt, T)


@pytest.mark.parametrize("name", ["xyz", "det3"])
def test_moment_suite_fails_on_flipped_half_bracket(name, monkeypatch):
    # The flip collapses the map to phi1 = phi2 = 0, phi3 = (y, yz),
    # which satisfies the membership equation trivially; only the
    # closed-form comparison tells it from the true map.
    T = catalog_get(name).tensor()
    cfg = RunConfig(seed=0, samples=3, primes=(5,), probe_budget=10)
    [check] = run_verification(T, ["moment"], cfg).checks
    assert check["status"] == "pass"
    monkeypatch.setattr(moment, "_moment_covector", _flipped_half_bracket_covector())
    [check] = run_verification(T, ["moment"], cfg).checks
    assert check["status"] == "fail"
    assert check["details"]["failures"] == [{"check": "closed_form", "sample": 0}]


def test_probe_fermat_exhaustive_none():
    verdict = smoothness_probe(FERMAT3, primes=(5, 7, 11), budget=10 ** 6)
    assert not verdict.found
    assert all(mode == "exhaustive" for _q, mode in verdict.modes)
    assert dict(verdict.trials) == {5: 124, 7: 342, 11: 1330}


def test_probe_x3_none():
    verdict = smoothness_probe(X3, primes=(5, 7, 11, 13), budget=10 ** 6)
    assert not verdict.found


def test_probe_det_sym3_witness():
    T = catalog_get("det-sym-3").tensor()
    verdict = smoothness_probe(T, primes=(5, 7, 11, 13), budget=10 ** 6)
    assert verdict.found
    q, v = verdict.witness
    assert q == 5
    # Verify the witness honestly: B(v, v) = 0 mod q.
    vv = [F(x) for x in v]
    cov = polarize(T, vv, vv)
    assert all(c.denominator == 1 and c.numerator % q == 0 for c in cov)
    assert any(v)


def test_probe_rejects_bad_modulus():
    T = SymCubic(1, {(0, 0, 0): F(1, 5)})
    with pytest.raises(ReductionError):
        smoothness_probe(T, primes=(5,), budget=100)


def test_probe_reproducible():
    T = catalog_get("det3").tensor()
    a = smoothness_probe(T, primes=(5,), budget=5000, seed=9).to_json()
    b = smoothness_probe(T, primes=(5,), budget=5000, seed=9).to_json()
    assert a == b
    assert a["modes"]["5"] == "structured+random"


def _parent_probe(T, primes, budget, seed=0):
    """The probe before its structured phase: (modes, trials, witness)."""
    p = T.dim
    modes, trials, witness = [], [], None
    for q in primes:
        per_k = cubic._quadric_data(reduce_mod(T, q))
        exhaustive = q ** p <= budget
        modes.append((q, "exhaustive" if exhaustive else "random"))
        count = 0
        if exhaustive:
            v = [0] * p
            while True:
                i = p - 1
                while i >= 0 and v[i] == q - 1:
                    v[i] = 0
                    i -= 1
                if i < 0:
                    break
                v[i] += 1
                count += 1
                if cubic._is_quadric_zero(per_k, v, q):
                    witness = (q, tuple(v))
                    break
        else:
            sampler = SeededSampler(seed ^ (q << 20))
            for _ in range(budget):
                v = sampler.residue_vector(p, q)
                if not any(v):
                    continue
                count += 1
                if cubic._is_quadric_zero(per_k, v, q):
                    witness = (q, tuple(v))
                    break
        trials.append((q, count))
        if witness is not None:
            break
    return tuple(modes), tuple(trials), witness


def _assert_honest_witness(T, witness):
    q, v = witness
    assert any(x % q for x in v)
    cov = polarize(T, [F(x) for x in v], [F(x) for x in v])
    assert all(c.denominator == 1 and c.numerator % q == 0 for c in cov)


def _xyz_in_skew_coordinates():
    # c(v) = xyz(A v) with A = B^-1, B = [[1,1,1],[1,2,3],[1,3,6]]: the
    # singular points are the multiples of the columns of B, whose
    # entries are all nonzero mod 5, so no structured candidate is one.
    xyz = catalog_get("xyz").tensor()
    cols = ((3, -3, 1), (-3, 5, -2), (1, -2, 1))  # columns of A
    entries = {}
    for i in range(3):
        for j in range(i, 3):
            for k in range(j, 3):
                entries[(i, j, k)] = trilinear(xyz, cols[i], cols[j], cols[k])
    return SymCubic(3, entries)


@pytest.mark.parametrize("name", ["j3o-norm", "det3", "pfaff6"])
def test_probe_structured_witness_catalog(name):
    T = catalog_get(name).tensor()
    p = T.dim
    verdict = smoothness_probe(T, primes=(5, 7, 11, 13), budget=10 ** 5)
    assert verdict.modes[0] == (5, "structured+random")
    assert verdict.witness[0] == 5
    assert dict(verdict.trials)[5] <= p + p * (p - 1)
    _assert_honest_witness(T, verdict.witness)


@pytest.mark.parametrize("algebra", ["e6", "e7", "e8"])
def test_probe_structured_witness_extracted(algebra, request):
    T = extraction(request.getfixturevalue(algebra)).tensor
    p = T.dim
    verdict = smoothness_probe(T, primes=(5, 7, 11, 13), budget=10 ** 5)
    assert verdict.modes[0] == (5, "structured+random")
    assert verdict.witness[0] == 5
    assert dict(verdict.trials)[5] <= p + p * (p - 1)
    _assert_honest_witness(T, verdict.witness)


def test_probe_random_phase_unchanged_without_structured_witness():
    # Diagonal Fermat cubic on 9 variables: smooth, so both phases come
    # up empty and every random draw of the parent stream is tested.
    T = SymCubic(9, {(i, i, i): 1 for i in range(9)})
    primes, budget, seed = (5, 7), 3000, 4
    _modes, ref_trials, ref_witness = _parent_probe(T, primes, budget, seed)
    verdict = smoothness_probe(T, primes=primes, budget=budget, seed=seed)
    assert verdict.witness is None and ref_witness is None
    assert verdict.trials == tuple((q, 81 + n) for q, n in ref_trials)
    assert verdict.modes == tuple((q, "structured+random") for q in primes)


def test_probe_random_phase_finds_the_parent_witness():
    T = _xyz_in_skew_coordinates()
    primes, budget = (5, 7), 100
    for seed in range(4):
        _modes, ref_trials, ref_witness = _parent_probe(T, primes, budget, seed)
        verdict = smoothness_probe(T, primes=primes, budget=budget, seed=seed)
        assert ref_witness is not None
        assert verdict.witness == ref_witness
        assert verdict.trials == tuple((q, 9 + n) for q, n in ref_trials)
        _assert_honest_witness(T, verdict.witness)


@pytest.mark.parametrize("name", ["x3", "xq5", "xyz", "fermat3", "det-sym-3"])
def test_probe_exhaustive_mode_matches_parent(name):
    T = catalog_get(name).tensor()
    primes = (5, 7, 11, 13)
    verdict = smoothness_probe(T, primes=primes, budget=10 ** 5)
    modes, trials, witness = _parent_probe(T, primes, 10 ** 5)
    assert all(mode == "exhaustive" for _q, mode in modes)
    assert (verdict.modes, verdict.trials, verdict.witness) == (
        modes, trials, witness,
    )


def test_boundary_report_fermat_supported():
    rep = boundary_report(FERMAT3, primes=(5, 7, 11), budget=10 ** 6)
    assert rep["codim_ge2_supported"]
    assert not rep["inapplicable"]
    # 'none-found' is not a proof of smoothness, so nothing claims one.
    assert "smoothness_hypothesis_holds" not in rep
    assert rep["dim_moment_image"] == 2 * 3 + 2
    assert rep["boundary_param_count"] == 2 * 3


def test_boundary_report_det_sym3_inapplicable():
    T = catalog_get("det-sym-3").tensor()
    rep = boundary_report(T, primes=(5,), budget=10 ** 6)
    assert rep["inapplicable"]
    assert not rep["codim_ge2_supported"]
