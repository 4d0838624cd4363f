"""Print one SHA-256 digest per group of the library's outputs.

Two checkouts that print the same digests produce the same bytes on
every output below, so a refactor that promises unchanged numbers can be
checked by running this script at the parent commit and at the change:

    PYTHONPATH=src python tools/output_digest.py

(run it once per checkout, with ``PYTHONPATH`` pointing at that
checkout's ``src``). Each line is ``group items sha256``. The groups:

- ``power_study``: ``LrtReport.to_json()`` and ``to_csv()`` of six small
  studies, 3 bases x 2 kinds;
- ``fits``: 648 fits (3 bases x 2 kinds x lambda 0.4/1/3 x n 15/40 x 6
  seeds, each by ``fit_full`` and by ``fit_restricted`` at lambda 1 and
  2.5), as ``to_json()`` plus ``profile_trace``, then 3 failing fits;
- ``lrt_statistics``: (full, misspec) pairs of single samples;
- ``loglik_ends``: ``loglik`` on samples holding the support ends;
- ``kl_numeric``: 48 divergences (3 bases x 2 kinds x 4 exponents, both
  directions against lambda 1) with their integrand node counts;
- ``moments``: the first two moments of the same 24 powered laws;
- ``cli``: the ``lehmann`` command run in process on six powered laws
  (3 bases x 2 kinds, lambda 2.5): ``sample`` as CSV and JSON, ``fit``
  on that CSV, ``moments`` as CSV and JSON, ``kl`` against lambda 1,
  then ``powerloss`` as CSV and SVG. Only successful runs are digested.

Floats are written by ``repr``, so every bit counts, and an error is
written as its type and message. numpy's SIMD log and exp may round
differently on another CPU, so compare digests taken on one machine.
The script takes a few seconds.
"""

import hashlib
import itertools

from click.testing import CliRunner

import lehmann as L
from lehmann import infotheory
from lehmann.cli import main as cli_main

BASES = (L.Uniform(), L.Exponential(1.0), L.Weibull(2.0, 1.0))
KINDS = (L.Kind.FIRST, L.Kind.SECOND)
BOXES = {"uniform": None, "exponential": ((0.05, 20.0),),
         "weibull": ((0.1, 40.0), (0.05, 20.0))}
QUADRATURE_LAMBDAS = (0.2, 0.5, 2.0, 5.0)


def _outcome(call):
    """``repr`` of what ``call()`` returns, or the error it raises."""
    try:
        return repr(call())
    except L.LehmannError as exc:
        return f"{type(exc).__name__}: {exc}"


def power_study():
    for b, base in enumerate(BASES):
        for kind in KINDS:
            cfg = L.SimConfig(kind, base=base, lambda_grid=(1.0, 2.0), n=20,
                              replications=100, alpha=0.1, seed=700 + 10 * b + kind.value,
                              calibration_replications=1000)
            report = L.run_power_study(cfg)
            yield report.to_json()
            yield report.to_csv()


def fits():
    for base, kind, lam, n, seed in itertools.product(BASES, KINDS, (0.4, 1.0, 3.0),
                                                      (15, 40), range(6)):
        box = BOXES[base.family_id]
        x = L.sample(L.extend(base, lam, kind), n, 900 + seed).values
        for fit in (L.fit_full(kind, base.family_id, x, box),
                    L.fit_restricted(kind, base.family_id, x, 1.0, box),
                    L.fit_restricted(kind, base.family_id, x, 2.5, box)):
            yield fit.to_json() + repr(fit.profile_trace)
    yield _outcome(lambda: L.fit_full(1, "uniform", [0.2, 1.5]))
    yield _outcome(lambda: L.fit_full(1, "exponential", [1.3, 1.3, 1.3], BOXES["exponential"]))
    # F rounds to 1 at every value, so the exponent MLE is undefined
    yield _outcome(lambda: L.fit_full(1, "exponential", [900.0, 1000.0], ((0.5, 2.0),)))


def lrt_statistics():
    for b, base in enumerate(BASES):
        for kind in KINDS:
            cfg = L.SimConfig(kind, base=base, lambda_grid=(1.0,), n=20, replications=100,
                              alpha=0.1, seed=1, calibration_replications=1000)
            for lam in (1.0, 2.0):
                for seed in range(4):
                    x = L.sample(L.extend(base, lam, kind), cfg.n, 800 + 10 * b + seed)
                    yield _outcome(lambda: L.lrt_statistics(x, cfg))


def loglik_ends():
    samples = {"uniform": ([0.0, 0.5, 1.0], [0.0, 0.3], [1.0, 0.3], [0.5]),
               "exponential": ([0.0, 1.0], [0.0], [2.0, 0.4]),
               "weibull": ([0.0, 1.0], [0.0], [2.0, 0.4])}
    for base, kind, lam in itertools.product(BASES, KINDS, (0.5, 1.0, 2.0)):
        for x in samples[base.family_id]:
            yield _outcome(lambda: L.loglik(kind, base.family_id, base.theta, lam, x))


def _laws():
    for base, kind, lam in itertools.product(BASES, KINDS, QUADRATURE_LAMBDAS):
        yield L.extend(base, lam, kind), L.extend(base, 1.0, kind)


def kl_numeric():
    integrate = infotheory.integrate_unit
    nodes = 0

    def counted(f):
        def g(t):
            nonlocal nodes
            nodes += t.size
            return f(t)
        return integrate(g)

    infotheory.integrate_unit = counted
    try:
        for p, q in _laws():
            for a, b in ((p, q), (q, p)):
                nodes = 0
                value = _outcome(lambda: L.kl_numeric(a, b).to_json())
                yield f"{value} nodes={nodes}"
    finally:
        infotheory.integrate_unit = integrate


def moments():
    for p, _ in _laws():
        for k in (1, 2):
            yield _outcome(lambda: p.moment(k))


def cli():
    runner = CliRunner()

    def run(*args, stdin=None):
        result = runner.invoke(cli_main, list(args), input=stdin, catch_exceptions=False)
        if result.exit_code != 0:
            raise SystemExit(f"lehmann {' '.join(args)} exited {result.exit_code}: "
                             f"{result.output}")
        return result.stdout

    for base, kind in itertools.product(BASES, KINDS):
        p = L.extend(base, 2.5, kind).describe()
        csv = run("sample", "--dist", p, "--n", "30", "--seed", "5")
        yield csv
        yield run("sample", "--dist", p, "--n", "30", "--seed", "5", "--format", "json")
        yield run("fit", "-", stdin=csv)
        for fmt in ("csv", "json"):
            yield run("moments", "--dist", p, "--k", "2", "--format", fmt)
        yield run("kl", "--p", p, "--q", L.extend(base, 1.0, kind).describe())
    for fmt in ("csv", "svg"):
        yield run("powerloss", "--lambda-min", "0.25", "--lambda-max", "8",
                  "--steps", "12", "--format", fmt)


GROUPS = (power_study, fits, lrt_statistics, loglik_ends, kl_numeric, moments, cli)


def main():
    for group in GROUPS:
        digest = hashlib.sha256()
        items = 0
        for line in group():
            digest.update(line.encode("utf-8") + b"\n")
            items += 1
        print(f"{group.__name__} {items} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
