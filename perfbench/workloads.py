"""The four workloads: how each draws its inputs from the seed, drives the
program, and checks what the program delivered.

Every workload is a closed loop with one client: the next op is issued only
after the previous one returned or raised. execute() raises on any failure
of the program; check() runs after the timed loop and returns None or a
(kind, reason) pair, kind being "WrongValue" or "Shortfall".
"""

import csv
import io
import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import anharmonic.core as core
import anharmonic.models as models
import anharmonic.numerov as numerov
import anharmonic.solver as solver
from reference import (
    G_VALUES,
    LEVEL_TOL,
    MORSE_TOL,
    check_quantization,
    morse_levels,
    mpt_levels,
    potential_minimum,
    pt_level,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

# one fresh F(E) evaluation reaches every series kernel (numba compiles them
# there when it is installed)
_FIRST_F = (
    "import anharmonic.core as c\n"
    "c.quantization_value(c.OscillatorSpec(g=1.0, N=4, nu=0), 1.2)\n"
)


def rounds(rng, strata):
    """Endless sequence of the given strata, each round a fresh shuffle of
    all of them, so every run holds nearly the same mix of op sizes."""
    strata = list(strata)
    while True:
        rng.shuffle(strata)
        yield from strata


def _check_levels(N, g, count, levels, ref):
    """levels: (energy, parity, ordinal) ascending, as delivered."""
    for j, (energy, parity, ordinal) in enumerate(levels):
        if (parity, ordinal) not in ((j % 2, j // 2), (None, None)):
            return "WrongValue", f"N={N} g={g} level {j} labelled parity {parity} ordinal {ordinal}"
        want = ref(N, g, j)
        if not abs(energy - want) <= LEVEL_TOL:
            return "WrongValue", f"N={N} g={g} E_{j}={energy!r}, reference {want!r}"
    if len(levels) < count:
        return "Shortfall", f"N={N} g={g}: {len(levels)} of {count} levels"
    return None


class Spectrum:
    name = "spectrum"
    setup_code = _FIRST_F

    def ops(self, seed):
        rng = random.Random(f"spectrum:{seed}")
        for N, count in rounds(rng, [(N, c) for N in range(4, 13) for c in range(1, 5)]):
            yield {"N": N, "g": rng.choice(G_VALUES), "count": count}

    def execute(self, op):
        res = solver.lowest_eigenvalues(op["N"], op["g"], op["count"])
        return {
            "levels": [(ev.energy, ev.parity, ev.ordinal) for ev in res.eigenvalues],
        }

    def delivered(self, out):
        return len(out["levels"])

    def check(self, op, out, checker):
        return _check_levels(op["N"], op["g"], op["count"], out["levels"], checker.level)


class Probe:
    name = "probe"
    setup_code = _FIRST_F
    # the mpmath re-summation costs 0.1-1 s per point, so only the first
    # few delivered points of a run get it; all get the structural checks
    MP_CHECKS = 3

    def ops(self, seed):
        rng = random.Random(f"probe:{seed}")
        for N, nu in rounds(rng, [(N, nu) for N in range(4, 13) for nu in (0, 1)]):
            g = rng.uniform(-20.0, 20.0)
            yield {"N": N, "nu": nu, "g": g, "E": rng.uniform(potential_minimum(g, N) - 5.0, 150.0)}

    def execute(self, op):
        spec = core.OscillatorSpec(g=op["g"], N=op["N"], nu=op["nu"])
        return core.quantization_value(spec, op["E"])

    def delivered(self, out):
        return 1

    def check(self, op, ev, checker):
        N, nu, g, E = op["N"], op["nu"], op["g"], op["E"]
        resum = checker.mp_checks < self.MP_CHECKS
        checker.mp_checks += resum
        reason = check_quantization(N, nu, g, E, ev, resum)
        return None if reason is None else ("WrongValue", f"N={N} nu={nu} g={g} E={E}: {reason}")


class Validate:
    name = "validate"
    setup_code = (
        "import anharmonic.numerov as n, anharmonic.models as m\n"
        "n.richardson_eigenvalue(n.EvenPolynomial.oscillator(1.0, 4), 0, 0)\n"
        "m.pt_wronskian(m.PoschlTellerSpec(kappa=2.0, lam=3.0), 20.0)\n"
    )

    def ops(self, seed):
        # one op checks one table level with the shooting oracle plus one
        # zero of each solvable well, so every op has the same shape. The
        # textbook Morse levels gamma/alpha - n - 1/2 describe the hard-wall
        # well only away from threshold, so the lowest one is kept >= 0.1.
        rng = random.Random(f"validate:{seed}")
        for N, j in rounds(rng, [(N, j) for N in range(4, 8) for j in range(4)]):
            yield {
                "N": N,
                "g": rng.choice(G_VALUES),
                "j": j,
                "pt": (round(rng.uniform(1.5, 4.0), 3), round(rng.uniform(1.5, 4.0), 3),
                       rng.randint(0, 3)),
                "mpt": self._mpt(rng),
                "morse": round(rng.randint(1, 3) + 0.5 + rng.uniform(0.1, 0.9), 3),
            }

    @staticmethod
    def _mpt(rng):
        """(lambda, branch, index of the level to locate)."""
        lam, mu = round(rng.uniform(3.5, 8.0), 3), rng.choice((0.0, 0.5))
        return lam, mu, rng.randrange(len(mpt_levels(lam, mu)))

    def execute(self, op):
        def refine(f, lo, hi):
            br = solver.Bracket(lo, hi, f(lo), f(hi))
            return solver.refine_root(f, br, tol_e=1e-10).energy

        ordinal, parity = divmod(op["j"], 2)
        pot = numerov.EvenPolynomial.oscillator(op["g"], op["N"])
        osc, _ = numerov.richardson_eigenvalue(pot, ordinal, parity)

        kappa, lam, n = op["pt"]
        pt_spec = models.PoschlTellerSpec(kappa=kappa, lam=lam)
        half_gap = 2.0 * (kappa + lam + 2 * n) + 1.0
        level = pt_level(kappa, lam, n)
        pt = refine(lambda k2: models.pt_wronskian(pt_spec, k2), level - half_gap, level + half_gap)

        lam, mu, k = op["mpt"]
        mpt_spec = models.ModifiedPTSpec(lam=lam, parity_mu=mu)
        level = mpt_levels(lam, mu)[k]
        mpt = refine(lambda k: models.mpt_wronskian(mpt_spec, k), max(level - 0.5, 1e-6), level + 0.5)

        goa = op["morse"]
        morse_spec = models.MorseSpec(alpha=math.log(30.05 / (2.0 * goa)), gamma_over_alpha=goa)
        morse = models.morse_located_zeros(morse_spec)
        return {"osc": osc, "pt": pt, "mpt": mpt, "morse": morse}

    def delivered(self, out):
        return 1

    def check(self, op, out, checker):
        N, g, j = op["N"], op["g"], op["j"]
        want = checker.level(N, g, j)
        if not abs(out["osc"] - want) <= LEVEL_TOL:
            return "WrongValue", f"oracle N={N} g={g} E_{j}={out['osc']!r}, table {want!r}"
        kappa, lam, n = op["pt"]
        want = pt_level(kappa, lam, n)
        if not abs(out["pt"] - want) <= LEVEL_TOL:
            return "WrongValue", f"Poschl-Teller {op['pt']}: zero {out['pt']!r}, exact {want!r}"
        lam, mu, k = op["mpt"]
        want = mpt_levels(lam, mu)[k]
        if not abs(out["mpt"] - want) <= LEVEL_TOL:
            return "WrongValue", f"modified PT {op['mpt']}: zero {out['mpt']!r}, exact {want!r}"
        want = sorted(morse_levels(op["morse"]))
        got = sorted(out["morse"])
        if len(got) != len(want) or any(abs(a - b) > MORSE_TOL for a, b in zip(got, want)):
            return "WrongValue", f"Morse gamma/alpha={op['morse']}: zeros {got}, levels {want}"
        return None


class CliFailure(Exception):
    """A spectra invocation that exited with an error; kind is the exception
    type it reported (or Timeout / ExitCode<n>)."""

    def __init__(self, kind, detail):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def _failure_kind(code, stderr):
    lines = [ln.strip() for ln in stderr.splitlines() if ln.strip()]
    last = lines[-1] if lines else ""
    if last.startswith("spectra: "):
        last = last[len("spectra: "):]
    head = last.split(":", 1)[0]
    if head.isidentifier() and (head.endswith("Error") or head.endswith("Exception")):
        return head
    return f"ExitCode{code}"


def run_cli(args, env_extra, timeout):
    """Run `python <args>` with the package on the path, in its own session;
    returns stdout. Whatever is left in the session at the end is killed."""
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable] + args, env=env, cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CliFailure("Timeout", f"{' '.join(args)} still running after {timeout:.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    if proc.returncode not in (0, 2):  # 2 is a partial result, checked later
        raise CliFailure(_failure_kind(proc.returncode, err), err.strip()[-300:])
    return out


class Sweep:
    name = "sweep"
    setup_code = "import anharmonic.cli\n" + _FIRST_F
    THREADS = 2
    # a CLI call that has not returned by then is killed and counted failed,
    # so a run always ends inside its time limit
    TIMEOUT_S = 120.0

    def ops(self, seed):
        # four neighbouring couplings on a 0.25 grid inside [-8, 2.75]: the
        # double-well crossover, where even/odd pairs split
        rng = random.Random(f"sweep:{seed}")
        for N in rounds(rng, (5, 5, 5, 8, 10)):
            yield {
                "N": N,
                "g_from": rng.randint(-32, 8) * 0.25,
                "g_step": 0.25,
                "n_g": 4,
                "levels": 2,
            }

    def argv(self, op):
        g_to = op["g_from"] + (op["n_g"] - 1) * op["g_step"]
        return [
            "sweep", f"--N={op['N']}", f"--g-from={op['g_from']}", f"--g-to={g_to}",
            f"--g-step={op['g_step']}", f"--levels={op['levels']}",
        ]

    def execute(self, op, threads=THREADS, wrapper=None, timeout=TIMEOUT_S):
        args = ["-m", "anharmonic.cli"] + self.argv(op)
        env = {"SPECTRA_THREADS": str(threads)}
        if wrapper is not None:
            script, spans_dir = wrapper
            args = [str(script)] + args[2:]
            env["PERFBENCH_SPANS_DIR"] = str(spans_dir)
        out = run_cli(args, env, timeout)
        rows = list(csv.reader(io.StringIO(out)))[1:]
        return {"rows": [(float(r[0]), [float(c) for c in r[1:] if c]) for r in rows]}

    def delivered(self, out):
        return sum(len(levels) for _, levels in out["rows"])

    def check(self, op, out, checker):
        want_g = [op["g_from"] + i * op["g_step"] for i in range(op["n_g"])]
        got_g = [g for g, _ in out["rows"]]
        if len(got_g) != len(want_g) or any(abs(a - b) > 1e-9 for a, b in zip(got_g, want_g)):
            return "WrongValue", f"rows for couplings {got_g}, asked {want_g}"
        worst = None
        for g, energies in out["rows"]:
            levels = [(e, None, None) for e in energies]
            bad = _check_levels(op["N"], g, op["levels"], levels, checker.level)
            if bad is not None and (worst is None or bad[0] == "WrongValue"):
                worst = bad
        return worst


WORKLOADS = {w.name: w for w in (Spectrum(), Probe(), Validate(), Sweep())}
