"""The benchmark's workloads: seeded inputs, the jobs that run them, and the
checks that judge every output from outside the program.

A job is one call a user would make.  ``run`` makes it and is the only timed
part; ``check`` then reads what the call produced and returns an
:class:`Outcome`.  Every workload is a closed loop: one caller runs its jobs
in order, each after the previous one returned.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# the README's sweep grid, -0.99:0.99:0.03
SWEEP_ALPHAS = "-0.99:0.99:0.03"
SWEEP_ROWS = 67
# the program's gates, relative to 1 + |closed|
GATE = {"classical": 1e-9, "quantum": 1e-8}
# agreement of the program's closed-form and limit columns with the
# benchmark's own formulas, relative to 1 + |reference|
REFERENCE_RTOL = 1e-8


@dataclass
class Outcome:
    attempted: int
    failed: int  # operations that missed a check; each is also a problem
    digest: str
    # failures that make the run incorrect
    problems: list = field(default_factory=list)
    # operations that miss their documented tolerance through a known defect
    # of the program; measured in the ok ratio, not counted in ``failed``
    known_misses: int = 0


@dataclass
class Job:
    name: str
    kind: str  # "classical", "quantum" or "recovery": the part it exercises
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    ops: int = 1  # operations counted as failed when ``run`` raises
    repeats: int = 1  # timed runs per pass, for short jobs beside long ones


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def _cli_call(cli, argv, out: Path):
    def run():
        if out.exists():
            out.unlink()
        return cli.main(argv)

    return run


# ---------------------------------------------------------------------------
# Input generation (the benchmark's own numpy code, not the program's)
# ---------------------------------------------------------------------------

def _random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def _operator(rng, spectrum):
    u = _random_unitary(rng, len(spectrum))
    m = (u * spectrum) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def _encode(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _write_doc(path: Path, kind, objects):
    if kind == "quantum":
        objects = {k: _encode(v) for k, v in objects.items()}
    else:
        objects = {k: [float(x) for x in v] for k, v in objects.items()}
    path.write_text(json.dumps({"kind": kind, "objects": objects}), encoding="utf-8")


def _hermitian_power(m, s):
    w, u = np.linalg.eigh(m)
    return (u * w**s) @ u.conj().T


def _hermitian_log(m):
    w, u = np.linalg.eigh(m)
    return (u * np.log(w)) @ u.conj().T


def _reference_closed(kind, x, y, a):
    if kind == "classical":
        return float(
            np.sum(
                2.0 / (1.0 - a) * y
                + 2.0 / (1.0 + a) * x
                - 4.0 / (1.0 - a * a) * y ** ((1.0 + a) / 2.0) * x ** ((1.0 - a) / 2.0)
            )
        )
    mixed = np.trace(_hermitian_power(x, (1.0 - a) / 2.0) @ _hermitian_power(y, (1.0 + a) / 2.0))
    core = (1.0 - a) / 2.0 * np.trace(x) + (1.0 + a) / 2.0 * np.trace(y) - mixed
    return float(4.0 / (1.0 - a * a) * core.real)


def _reference_limit(kind, x, y):
    if kind == "classical":
        return float(np.sum(y - x - x * np.log(y / x)))
    value = np.trace(x @ (_hermitian_log(x) - _hermitian_log(y))) + np.trace(y) - np.trace(x)
    return float(value.real)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify_program_seed(seed):
    """Seed handed to ``alphadiv verify``, derived from the benchmark seed.

    The recovery suite dominates ``verify`` and its cost depends on its draw:
    each of its ten points has two or three coordinates (a three-coordinate
    point costs about 3.3 times a two-coordinate one), and the first two also
    get a curvature check.  Between seeds that moves the suite's time by up to
    80%.  The benchmark therefore takes, from a stream seeded by ``seed``, the
    first program seed whose draw has the median shape: five three-coordinate
    points, the first two of two and three coordinates.  The predicate mirrors
    the draw order of ``suites.run_recovery_suite``; if that order changes,
    the seed stays valid but its cost is no longer matched.
    """
    stream = np.random.default_rng([seed, 7001])
    while True:
        candidate = int(stream.integers(1, 2**31))
        rng = np.random.default_rng(candidate)
        dims = []
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            rng.uniform(0.5, 3.0, size=dim)
            dims.append(dim)
        if dims[:2] == [2, 3] and dims.count(3) == 5:
            return candidate


# The classical and quantum suites take tenths of a second beside the
# recovery suite's seconds; repeating them within a pass gives their timings
# enough samples.
VERIFY_REPEATS = {"classical": 6, "quantum": 3, "recovery": 1}


def verify_jobs(cli, seed, workdir: Path):
    program_seed = verify_program_seed(seed)
    jobs = []
    for suite in ("classical", "quantum", "recovery"):
        out = workdir / f"verify-{suite}.json"
        argv = ["verify", "--suite", suite, "--trials", "100", "--seed", str(program_seed),
                "--out", str(out)]

        def check(code, out=out, suite=suite):
            data = _read(out)
            problems = []
            try:
                checks = json.loads(data)["checks"]
            except (ValueError, KeyError):
                checks = []
                problems.append(f"verify {suite}: no report")
            failed = sum(1 for c in checks if not c["pass"])
            if code != 0:
                problems.append(f"verify {suite}: exit code {code}")
            problems += [f"verify {suite}: check {c['check']!r} failed" for c in checks if not c["pass"]]
            attempted = max(len(checks), 1)
            return Outcome(attempted, failed if checks else attempted, _digest(data), problems)

        jobs.append(
            Job(f"verify-{suite}", suite, _cli_call(cli, argv, out), check, repeats=VERIFY_REPEATS[suite])
        )
    return jobs, {"verify_program_seed": program_seed}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# cone, dimension, boundary ratio (None: components or eigenvalues drawn
# from [0.2, 4]; otherwise the first object's smallest one is set to this
# ratio of its largest)
SWEEP_SPECS = (
    ("classical", 3, None),
    ("classical", 100, None),
    ("classical", 1000, None),
    ("classical", 4000, None),
    ("quantum", 2, None),
    ("quantum", 4, None),
    ("quantum", 8, None),
    ("quantum", 16, None),
    ("quantum", 32, None),
    ("classical", 3, 1e-2),
    ("classical", 3, 1e-3),
    ("classical", 3, 1e-4),
    ("quantum", 4, 1e-2),
    ("quantum", 4, 1e-3),
    ("quantum", 4, 1e-4),
)


def _expected_alphas():
    values, x = [], -0.99
    while x <= 0.99 + 1e-12:
        values.append(round(x, 12))
        x += 0.03
    return values


def _sweep_objects(rng, kind, dim, ratio):
    spectra = [rng.uniform(0.2, 4.0, size=dim) for _ in range(2)]
    if ratio is not None:
        spectra[0][np.argmin(spectra[0])] = ratio * spectra[0].max()
    if kind == "classical":
        return spectra
    return [_operator(rng, s) for s in spectra]


def _check_sweep(kind, boundary, x, y, tag, path):
    expected_alphas = _expected_alphas()
    limit_ref = _reference_limit(kind, x, y)

    def check(code):
        data = _read(path)
        problems = []
        rows = data.decode("utf-8").splitlines()[1:] if data else []
        if code != 0 or len(rows) != SWEEP_ROWS:
            problems.append(f"{tag}: exit code {code}, {len(rows)} rows")
            return Outcome(SWEEP_ROWS, SWEEP_ROWS, _digest(data), problems)
        failed = known = 0
        for line, a_expected in zip(rows, expected_alphas):
            a, numeric, closed, limit, gap = (float(v) for v in line.split(","))
            ref = _reference_closed(kind, x, y, a)
            wrong = (
                a != a_expected
                or abs(closed - ref) > REFERENCE_RTOL * (1.0 + abs(ref))
                or abs(limit - limit_ref) > REFERENCE_RTOL * (1.0 + abs(limit_ref))
                or gap != abs(closed - limit)
            )
            if wrong:
                problems.append(f"{tag}: row alpha={a!r} disagrees with the reference")
            misses_gate = not abs(numeric - closed) <= GATE[kind] * (1.0 + abs(closed))
            if misses_gate and boundary and not wrong:
                # the fixed 64-node rule near the cone boundary (ROADMAP open item 2)
                known += 1
            elif misses_gate or wrong:
                failed += 1
                if misses_gate:
                    problems.append(f"{tag}: quadrature misses the gate at alpha={a!r}")
        return Outcome(SWEEP_ROWS, failed, _digest(data), problems, known)

    return check


def sweep_jobs(cli, seed, workdir: Path):
    rng = np.random.default_rng([seed, 7002])
    jobs = []
    for kind, dim, ratio in SWEEP_SPECS:
        x, y = _sweep_objects(rng, kind, dim, ratio)
        tag = f"sweep-{kind}-{dim}" + (f"-r{ratio:g}" if ratio else "")
        doc = workdir / f"{tag}.json"
        out = workdir / f"{tag}.csv"
        _write_doc(doc, kind, {"a": x, "b": y})
        argv = ["sweep", str(doc), "--pair", "a:b", f"--alphas={SWEEP_ALPHAS}", "--out", str(out)]
        check = _check_sweep(kind, ratio is not None, x, y, tag, out)
        jobs.append(Job(tag, kind, _cli_call(cli, argv, out), check, SWEEP_ROWS))
    return jobs, {}


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------

RECOVER_ALPHAS = (-0.5, 0.0, 0.5)


def _classical_recover_job(cli, rng, dim, workdir: Path):
    p = rng.uniform(0.5, 3.0, size=dim)
    alpha = float(rng.choice(RECOVER_ALPHAS))
    tag = f"recover-classical-{dim}"
    doc = workdir / f"{tag}.json"
    out = workdir / f"{tag}.out.json"
    _write_doc(doc, "classical", {"p": p})
    argv = ["recover", str(doc), "--alpha", repr(alpha), "--point", "p", "--out", str(out)]

    def check(code):
        data = _read(out)
        try:
            report = json.loads(data)
        except ValueError:
            return Outcome(1, 1, _digest(data), [f"{tag}: exit code {code}, no report"])
        fisher = np.diag(1.0 / p)
        metric_err = np.max(np.abs(np.array(report["metric"]) - fisher)) / np.max(fisher)
        idx = np.arange(dim)
        gamma = np.zeros((dim, dim, dim))
        gamma[idx, idx, idx] = -0.5 * (1.0 + alpha) / p**2
        gamma_dual = np.zeros((dim, dim, dim))
        gamma_dual[idx, idx, idx] = -0.5 * (1.0 - alpha) / p**2
        ok = (
            code == 0
            and metric_err <= 1e-5
            and np.max(np.abs(np.array(report["christoffel"]) - gamma)) <= 1e-4
            and np.max(np.abs(np.array(report["christoffel_dual"]) - gamma_dual)) <= 1e-4
            and report["summary"]["defect_within"]
            and report["summary"]["curvature_within"]
        )
        problems = [] if ok else [f"{tag}: recovered structure off the analytic one"]
        return Outcome(1, 0 if ok else 1, _digest(data), problems)

    return Job(tag, "classical", _cli_call(cli, argv, out), check)


def _wyd_chart_metric(quantum, numkit, rho, basis, alpha):
    """WYD pairing of the tangents whose chart pushforwards are the basis.

    The reference of the repository's test
    ``test_recovered_metric_matches_wyd_pairing``.
    """
    beta = 0.5 * (1.0 - alpha)
    u = rho.spectral.eigenvectors
    table = numkit.power_divided_differences(rho.eigenvalues, beta) / beta
    tangents = [u @ ((u.conj().T @ b @ u) / table) @ u.conj().T for b in basis]
    n = len(basis)
    return np.array(
        [[quantum.wyd_metric(rho, tangents[i], tangents[j], alpha) for j in range(n)] for i in range(n)]
    )


def _quantum_chart_job(modules, rng):
    """The CLI's quantum chart contrast at operator dimension 2.

    ``recover`` on a quantum document also runs ``curvature_max``, which
    makes one job take over 20 seconds; the job therefore calls the two
    recovery stages the CLI calls before it, on the CLI's contrast.
    """
    numkit, quantum, recovery = modules["numkit"], modules["quantum"], modules["recovery"]
    alpha = float(rng.choice(RECOVER_ALPHAS))
    matrix = _operator(rng, rng.uniform(0.5, 2.0, size=2))
    tag = "recover-quantum-chart-2"
    cfg = numkit.FDConfig(step=1e-3, order=4)
    state = {}

    def run():
        rho = quantum.PositiveOperator(matrix)
        basis = quantum.hermitian_basis(rho.dim)
        point = quantum.theta_coordinates(quantum.alpha_embedding(rho, alpha), basis)

        def divergence(x, y):
            r1 = quantum.operator_from_chart(x, basis, alpha)
            r2 = quantum.operator_from_chart(y, basis, alpha)
            return quantum.quantum_alpha_divergence_closed(r1, r2, alpha)

        structure = recovery.recover_structure(divergence, point, cfg)
        defect = recovery.duality_defect(structure, divergence, cfg)
        state.update(rho=rho, basis=basis)
        return structure, defect

    def check(result):
        structure, defect = result
        data = json.dumps(
            [structure.metric.tolist(), structure.christoffel.tolist(),
             structure.christoffel_dual.tolist(), defect]
        ).encode()
        expected = _wyd_chart_metric(quantum, numkit, state["rho"], state["basis"], alpha)
        ok = np.max(np.abs(structure.metric - expected)) <= 1e-5 and defect <= 1e-4
        problems = [] if ok else [f"{tag}: metric or duality defect off (defect {defect:.3e})"]
        return Outcome(1, 0 if ok else 1, _digest(data), problems)

    return Job(tag, "quantum", run, check)


def recover_jobs(modules, seed, workdir: Path):
    rng = np.random.default_rng([seed, 7003])
    cli = modules["cli"]
    jobs = [_classical_recover_job(cli, rng, dim, workdir) for dim in (2, 3, 4)]
    jobs.append(_quantum_chart_job(modules, rng))
    return jobs, {}


def build(workload, modules, seed, workdir: Path):
    """Generate the inputs of a workload and return (jobs, input record)."""
    if workload == "verify":
        return verify_jobs(modules["cli"], seed, workdir)
    if workload == "sweep":
        return sweep_jobs(modules["cli"], seed, workdir)
    return recover_jobs(modules, seed, workdir)
