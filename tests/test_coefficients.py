"""Interface system assembly and its two solvers: the LAPACK solve of the
oracle and the closed-form solve of the trace engine.  Both take the same
entries and pass one gate function, so the gate test runs on both."""

import warnings

import numpy as np
import pytest
from test_random_media import random_setup

from poroseis import coefficients, green
from poroseis.branch_math import kappa
from poroseis.coefficients import (InterfaceEntries, _assemble_batch,
                                   _certified, _check_solution, _full_gates,
                                   _scatter, _solve_batch, _solve_structured,
                                   _structural_entries, assemble_system,
                                   solve_coefficients)
from poroseis.errors import SingularSystem
from poroseis.green import QuadratureConfig, branch_arrivals, transmitted_trace
from poroseis.media import PoroelasticParams, derive_poroelastic

# Normal-incidence coefficients for the validation material, frozen after
# cross-checking a hand-written Gaussian elimination against
# numpy.linalg.solve to machine precision.
R_NORMAL = 1.3493252110766281e-4
T_S_NORMAL = 6.4347872519235e-4


def test_solve_matches_numpy(acoustic, poro, rng):
    qx = rng.uniform(0.0, 8e-4, size=64)
    qy = rng.uniform(0.0, 8e-4, size=64)
    qq = qx * qx + qy * qy
    ka = np.sqrt(1.0 / acoustic.v_plus ** 2 + qq).astype(complex)
    kpf = np.sqrt(1.0 / poro.v_pf ** 2 + qq).astype(complex)
    kps = np.sqrt(1.0 / poro.v_ps ** 2 + qq).astype(complex)
    ks = np.sqrt(1.0 / poro.v_s ** 2 + qq).astype(complex)
    args = (acoustic, poro, qq.astype(complex), ka, kpf, kps, ks)
    ours = np.stack(_solve_batch(_structural_entries(*args), qx, qy), axis=1)
    a, b = _assemble_batch(*args)
    ref = np.linalg.solve(a, b[..., None])[..., 0]
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ours - ref)) <= 1e-13 * scale


def test_normal_incidence_values(acoustic, poro):
    c = solve_coefficients(acoustic, poro, 0.0, 0.0)
    assert c.r.imag == pytest.approx(0.0, abs=1e-18)
    assert c.r.real == pytest.approx(R_NORMAL, rel=1e-12)
    assert c.t_s.real == pytest.approx(T_S_NORMAL, rel=1e-12)


def test_normal_incidence_structure(acoustic, poro):
    """At zero transverse slowness the shear column decouples from the
    tangential-stress row except through its own diagonal entry."""
    a, b = assemble_system(acoustic, poro, 0.0, 0.0)
    assert a[0, 3] == 0.0
    assert a[2, 3] == pytest.approx(1.0 / poro.v_s ** 2, rel=1e-14)
    assert b[2] == 0.0


def test_real_slowness_gives_real_coefficients(acoustic, poro):
    c = solve_coefficients(acoustic, poro, 4e-4, 2e-4)
    for value in (c.r, c.t_pf, c.t_ps, c.t_s):
        assert abs(value.imag) <= 1e-12 * max(abs(value.real), 1e-300)


def test_conjugate_symmetry(acoustic, poro):
    """Complex-conjugate vertical slowness argument conjugates the solve."""
    qy = 3e-4
    gamma = 2e-4 - 5e-4j
    up = solve_coefficients(acoustic, poro, gamma, qy)
    down = solve_coefficients(acoustic, poro, np.conj(gamma), qy)
    for one, two in zip((up.r, up.t_pf, up.t_ps, up.t_s),
                        (down.r, down.t_pf, down.t_ps, down.t_s)):
        assert one == pytest.approx(np.conj(two), rel=1e-10)


def test_reflection_magnitude_bounded(acoustic, poro):
    """Sub-critical real slowness keeps the reflection coefficient small for
    this nearly-matched water/porous pair."""
    for q in np.linspace(0.0, 6e-4, 30):
        c = solve_coefficients(acoustic, poro, q, 0.0)
        assert abs(c.r) < 1.0


# The admissible medium and slowness pair of the mixed-unit tests.
MIXED_UNIT_PARAMS = PoroelasticParams(
    rho_s=2040.2182209046007, rho_f=1113.4460472353273,
    phi=0.3060616344185112, a=2.6519144443407985, k_s=28438797176.24685,
    k_f=1794341380.5625176, k_b=21080471159.22857, mu=29635011739.050343)
MIXED_UNIT_Q = (7.188761993841277e-07 - 5.392549196783516e-04j,
                4.6162754850875387e-04)


def test_mixed_unit_system_is_not_singular(acoustic):
    """The rows mix 1/rho and Pa: this admissible medium's raw condition
    number is about 1e14 but the equilibrated one about 6.5e2, so a pivot
    test against the raw row-sum norm would reject a well-posed system."""
    poro = derive_poroelastic(MIXED_UNIT_PARAMS)
    q_x, q_y = MIXED_UNIT_Q
    c = solve_coefficients(acoustic, poro, q_x, q_y)
    a, b = assemble_system(acoustic, poro, q_x, q_y)
    x = np.array([c.r, c.t_pf, c.t_ps, c.t_s])
    resid = np.max(np.abs(a @ x - b))
    scale = max(np.max(np.abs(b)),
                np.max(np.sum(np.abs(a), axis=1)) * np.max(np.abs(x)))
    assert resid <= 1e-10 * scale


def _closed_form_errors(args):
    """Relative residual of the closed-form solve on the 4x4 system and its
    distance from the LAPACK solve per system, as a fraction of max|x|.

    args are the arguments of _structural_entries for a batch of systems.
    """
    a, b = _assemble_batch(*args)
    entries = _structural_entries(*args)
    q = np.arange(a.shape[0], dtype=float)
    ours = np.stack(_solve_structured(entries, q, 0.0), axis=1)
    ref = np.stack(_solve_batch(entries, q, 0.0), axis=1)
    size = np.max(np.abs(ours), axis=1)
    resid = np.max(np.abs(np.einsum("mij,mj->mi", a, ours) - b), axis=1)
    scale = np.maximum(np.max(np.abs(b), axis=1),
                       np.max(np.sum(np.abs(a), axis=2), axis=1) * size)
    return resid / scale, np.max(np.abs(ours - ref), axis=1) / size


def test_closed_form_agrees_with_lapack_on_random_media(acoustic,
                                                        monkeypatch):
    """Every volume (complex gamma) and head (real zeta) system the engine
    solves on 40 draws of the random-media sampler: the closed form leaves a
    relative residual of at most 1e-13 and lies within 1e-11 of max|x| of
    LAPACK.  The bound on the difference is LAPACK's: its error reaches
    about 2e-12 on such draws, against about 1e-16 for the closed form."""
    systems = []

    def spy(*args):
        systems.append(args)
        return _structural_entries(*args)

    monkeypatch.setattr(green, "_structural_entries", spy)
    cfg = QuadratureConfig(n=16)
    for seed in range(40):
        model, receiver, _ = random_setup(seed, acoustic)
        for kind, arr in branch_arrivals(model, receiver).items():
            onset, end = arr.t0, arr.t0
            if arr.head_exists:
                onset, end = arr.t_h1, max(arr.t0, arr.t_h2)
            t_grid = np.linspace(onset, 1.05 * end + 0.01, 8)
            transmitted_trace(model, receiver, kind, t_grid, cfg)
    monkeypatch.undo()
    seen = set()
    for args in systems:
        # A head point -i*zeta has a real square, so its qq has no
        # imaginary part; a volume point off the axes gives one.
        seen.add("head" if np.all(args[2].imag == 0.0) else "volume")
        resid, diff = _closed_form_errors(args)
        assert np.max(resid) <= 1e-13
        assert np.max(diff) <= 1e-11
    assert seen == {"volume", "head"}


def test_closed_form_agrees_with_lapack_on_mixed_unit_system(acoustic):
    poro = derive_poroelastic(MIXED_UNIT_PARAMS)
    q_x, q_y = MIXED_UNIT_Q
    kappas = [np.atleast_1d(kappa(v, q_x, q_y))
              for v in (acoustic.v_plus, poro.v_pf, poro.v_ps, poro.v_s)]
    qq = np.atleast_1d(q_x * q_x + q_y * q_y)
    resid, diff = _closed_form_errors((acoustic, poro, qq, *kappas))
    assert resid[0] <= 1e-13
    assert diff[0] <= 1e-11


def _gate_entries(**bad):
    """Two systems: the first well posed (x = (1, 1, 0, 0)), the second with
    the entries given in bad replaced."""
    fields = dict.fromkeys(InterfaceEntries._fields, 0.0)
    fields.update(a01=1.0, a22=1.0, a33=1.0, b0=1.0, b1=1.0)
    out = {}
    for name, value in fields.items():
        out[name] = np.array([value, bad.get(name, value)], dtype=complex)
    return InterfaceEntries(**out)


Q_X = np.array([1e-4 + 0j, 5e-4 - 2e-4j])
Q_Y = np.array([2e-4, 3e-4])


GATE_CASES = [
    # Row 2 vanishes: the determinant is exactly zero.
    (dict(a21=0.0, a22=0.0, a23=0.0), "exactly singular"),
    # M = [[1, 1, 0], [1, 1 + 2**-50, 0], [0, 0, 1]]: det = 2**-50, so the
    # solution is finite but the equilibrated condition bound about 1e15.
    (dict(a02=1.0, a21=1.0, a22=1.0 + 2.0 ** -50), "condition"),
    (dict(a22=np.nan), "solution not finite"),
]


@pytest.mark.parametrize("solve, bad, fragment", [
    pytest.param(solve, bad, fragment, id=f"bad{i}-{fragment}{suffix}")
    for solve, suffix in ((_solve_structured, ""), (_solve_batch, "-lapack"))
    for i, (bad, fragment) in enumerate(GATE_CASES)])
def test_closed_form_gates(solve, bad, fragment):
    """Each gate raises SingularSystem at the second system, naming its
    slowness pair, and none emits a numpy warning; the closed form and the
    LAPACK solve share the gates."""
    entries = _gate_entries(**bad)
    np.testing.assert_array_equal(
        np.stack(solve(_gate_entries(), Q_X, Q_Y), axis=1),
        [[1.0, 1.0, 0.0, 0.0]] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match=fragment) as err:
            solve(entries, Q_X, Q_Y)
    assert err.value.q_x == Q_X[1] and err.value.q_y == Q_Y[1]
    assert f"q_x={complex(Q_X[1])!r}, q_y={float(Q_Y[1])!r}" \
        in str(err.value)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("field", InterfaceEntries._fields)
@pytest.mark.parametrize("solve", [_solve_structured, _solve_batch],
                         ids=["closed_form", "lapack"])
def test_non_finite_entries_raise_without_warnings(solve, field, value):
    """Any entry of the second system set to inf, -inf or NaN raises
    SingularSystem at that system, and neither solver emits a numpy
    warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem) as err:
            solve(_gate_entries(**{field: value}), Q_X, Q_Y)
    assert err.value.q_x == Q_X[1] and err.value.q_y == Q_Y[1]


@pytest.mark.parametrize("field", ["a00", "a11", "a31", "b0", "b1"])
def test_gates_reject_an_infinite_entry_at_a_finite_solution(field):
    """With this entry of the second system set to inf, x = (1, 1, 0, 0)
    stays finite but its residual there is inf: the certificate fails that
    system, and the full gates and _check_solution raise SingularSystem at
    it without a numpy warning."""
    e = _gate_entries(**{field: np.inf})
    x = tuple(np.full(2, v, dtype=complex) for v in (1.0, 1.0, 0.0, 0.0))
    assert list(_certified(e, x)) == [True, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gate in (_full_gates, _check_solution):
            with pytest.raises(SingularSystem) as err:
                gate(e, x, Q_X, Q_Y)
            assert err.value.q_x == Q_X[1] and err.value.q_y == Q_Y[1]


def test_branch_point_raises_without_warnings(acoustic, poro):
    """At q_x = i / v_+ the fluid's vertical slowness vanishes and the
    source term is infinite: solve_coefficients raises SingularSystem there
    without a numpy warning."""
    q_x = 1j / acoustic.v_plus
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="solution not finite") as err:
            solve_coefficients(acoustic, poro, q_x, 0.0)
    assert err.value.q_x == q_x and err.value.q_y == 0.0


# Which entries belong to which row of the 4x4 system; b1 is the right-hand
# side of rows 1 and 3 and is scaled with row 1.
_ROW_OF = dict(a00=0, a01=0, a02=0, a03=0, b0=0, a11=1, a12=1, b1=1,
               a21=2, a22=2, a23=2, a31=3, a32=3, a33=3)


def _random_systems(rng, m):
    """m random entry sets and their solutions: rows scaled over
    1e-12..1e12, half of them near-singular (the shear column a combination
    of the other two up to a relative 1e-17..1e-4, NaN solutions where
    that leaves it exactly singular), and every second solution perturbed by a relative 1e-17..1e-6, so that both gates are
    met and missed by every margin."""
    def complex_normal():
        return rng.normal(size=m) + 1j * rng.normal(size=m)

    scale = 10.0 ** rng.uniform(-12.0, 12.0, size=(4, m))
    f = {name: complex_normal() * scale[row] for name, row in _ROW_OF.items()}
    near = rng.random(m) < 0.5
    alpha = complex_normal()
    beta = -alpha * f["a11"] / f["a12"]  # keeps a13 = 0 exactly dependent
    eps = 10.0 ** rng.uniform(-17.0, -4.0, size=m)
    for col, (one, two) in (("a03", ("a01", "a02")), ("a23", ("a21", "a22")),
                            ("a33", ("a31", "a32"))):
        dep = alpha * f[one] + beta * f[two]
        noise = eps * complex_normal() * np.abs(dep)
        f[col] = np.where(near, dep + noise, f[col])
    e = InterfaceEntries(**f)
    a, b = _scatter(e)
    x = np.full((m, 4), np.nan + 0j)  # stays NaN where LAPACK finds det = 0
    for i in range(m):
        try:
            x[i] = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            pass
    shake = np.where(rng.random(m) < 0.5, 10.0 ** rng.uniform(-17, -6, m), 0.0)
    x = x * (1.0 + shake[:, None] * (rng.normal(size=(m, 4))
                                     + 1j * rng.normal(size=(m, 4))))
    return e, tuple(x.T)


def _take(e, x, i):
    """The entries and solution of system i alone."""
    return (InterfaceEntries(*(np.atleast_1d(v)[i:i + 1] for v in e)),
            tuple(v[i:i + 1] for v in x))


def _gate_verdict(e, x):
    """'pass', or the fragment of the full gates' SingularSystem message."""
    try:
        _full_gates(e, x, np.zeros(1), 0.0)
    except SingularSystem as err:
        for fragment in ("not finite", "condition", "residual"):
            if fragment in str(err):
                return fragment
        raise
    return "pass"


@pytest.mark.parametrize("residual", ["kept", "zero"])
def test_certificate_accepts_only_what_the_full_gates_accept(rng, residual,
                                                             monkeypatch):
    """Wherever the two-inequality certificate accepts a system, the full
    gates accept it too, on 3000 random systems with rows scaled over
    1e-12..1e12 and near-singular ones among them.  With the residual set to
    zero in both stages, the condition inequality alone is judged against
    the condition gate; otherwise the residual inequality rejects most
    ill-conditioned systems first.  The draw meets the verdicts of the gates
    judged, and the certificate both accepts and, being the stricter test,
    turns down systems the gates accept."""
    if residual == "zero":
        monkeypatch.setattr(coefficients, "_residual",
                            lambda e, x: np.zeros(np.shape(x[0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e, x = _random_systems(rng, 3000)
        certified = _certified(e, x)
        verdicts = [_gate_verdict(*_take(e, x, i)) for i in range(3000)]
    verdicts = np.array(verdicts)
    assert certified.shape == (3000,)
    assert np.all(verdicts[certified] == "pass")
    passed = verdicts == "pass"
    assert {"pass", "condition"} <= set(verdicts)
    assert ("residual" in verdicts) == (residual == "kept")
    assert np.count_nonzero(certified) >= 100
    assert np.count_nonzero(passed & ~certified) >= 100


def _fixture_batch(acoustic, poro, m=64):
    """m well-posed fixture systems at complex slownesses, with their
    slownesses; a11 and a12 broadcast so that one system can be replaced."""
    q_x = np.linspace(1e-5, 6e-4, m) - 2e-4j
    q_y = np.linspace(0.0, 3e-4, m)
    kappas = [kappa(v, q_x, q_y)
              for v in (acoustic.v_plus, poro.v_pf, poro.v_ps, poro.v_s)]
    e = _structural_entries(acoustic, poro, q_x * q_x + q_y * q_y, *kappas)
    e = InterfaceEntries(*(np.broadcast_to(v, (m,)).astype(complex)
                           for v in e))
    return e, q_x, q_y


def _with_system(e, i, other):
    """e with system i replaced by system 1 of the two-system entries other."""
    fields = [np.array(v) for v in e]
    for field, value in zip(fields, other):
        field[i] = value[1]
    return InterfaceEntries(*fields)


# The bad system of each case: system 1 of _gate_entries with these
# entries, or, for "residual", a good system whose solution is then moved.
BAD_SYSTEMS = {fragment.split()[-1]: bad for bad, fragment in GATE_CASES}
BAD_SYSTEMS["residual"] = {}


@pytest.mark.parametrize("case", ["singular", "condition", "finite",
                                  "residual"])
@pytest.mark.parametrize("solve", [_solve_structured, _solve_batch],
                         ids=["closed_form", "lapack"])
def test_one_bad_system_raises_the_full_gates_message(acoustic, poro, solve,
                                                      case, monkeypatch):
    """A batch of good fixture systems with one exactly singular,
    ill-conditioned, non-finite or high-residual system raises at that
    system's slowness pair, with no numpy warning, and the message of a
    gate is the full gates' own."""
    e, q_x, q_y = _fixture_batch(acoustic, poro)
    assert np.all(_certified(e, solve(e, q_x, q_y)))
    k = 37
    if case != "residual":
        e = _with_system(e, k, _gate_entries(**BAD_SYSTEMS[case]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if case == "singular":  # the solvers' own check, before the gates
            expected = "exactly singular"
        else:
            with monkeypatch.context() as patch:
                patch.setattr(coefficients, "_check_solution",
                              lambda *args: None)
                x = solve(e, q_x, q_y)
            if case == "residual":
                x[1][k] *= 1.0 + 1e-4
            with pytest.raises(SingularSystem) as ref:
                _full_gates(e, x, q_x, q_y)
            expected = str(ref.value)
        with pytest.raises(SingularSystem) as err:
            if case == "residual":
                _check_solution(e, x, q_x, q_y)
            else:
                solve(e, q_x, q_y)
    assert expected in str(err.value)
    assert err.value.q_x == q_x[k] and err.value.q_y == q_y[k]


def test_fixture_traces_never_reach_the_full_gates(model, fluid_receiver,
                                                   porous_receiver,
                                                   monkeypatch):
    """Every interface batch of the fixture receivers at n = 64, across the
    reflected, transmitted, head and mixed windows, is certified by the two
    inequalities alone.  The time loop solves chunks of windows, so the
    coverage is counted in systems: more than 500 windows' worth."""
    calls = {"certified": 0, "full": 0}
    certify = coefficients._certified

    def counted(e, x):
        calls["certified"] += np.size(e.b1)
        return certify(e, x)

    def full(*args):
        calls["full"] += 1

    monkeypatch.setattr(coefficients, "_certified", counted)
    monkeypatch.setattr(coefficients, "_full_gates", full)
    t = np.arange(0.3, 1.2, 1.0 / 400.0)
    for receiver in (fluid_receiver, porous_receiver):
        green.green_trace(model, receiver, t, QuadratureConfig(n=64))
    assert calls["certified"] > 500 * 64
    assert calls["full"] == 0
