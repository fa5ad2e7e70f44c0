"""Differential test of two revisions: do they give the same answers?

    python3 tools/identity.py REV_A REV_B [--blas-threads N]

Each revision is checked out into its own temporary ``git worktree``
(removed on exit).  One fixed, seeded corpus of ``gstruct`` argvs
(``corpus()``) runs on both trees, each argv in a fresh
``python -m gstruct.cli`` process with ``src/`` of its tree on the path and
N BLAS threads (default 1).  Every (argv, stream) whose bytes differ is
printed with its first differing token; the streams are stdout, stderr and
the exit code.  The last line is a summary, and the exit code is 0 when
nothing differs, 1 otherwise.  This is differential testing in the sense
of McKeeman (Digital Technical Journal 10, 1998).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ("analyze_golden.json", "commands_golden.json")
# space id: the number of its extra coefficients --alpha2..--alpha(1+n)
EXTRA_ALPHAS = {"M1": 7, "M2": 5, "M3": 5, "M4": 0}
SEED = 2039
DRAWS = 12  # random metrics per space
STREAMS = ("stdout", "stderr", "exit")


def _analyze(sid, alpha, beta, gamma, extras=(), *flags):
    argv = ["analyze", sid, "--alpha", repr(alpha), "--beta", repr(beta), "--gamma", repr(gamma)]
    for i, a in enumerate(extras, 2):
        argv += [f"--alpha{i}", repr(a)]
    return argv + list(flags)


def corpus() -> list[list[str]]:
    """The argvs, in a fixed order: both golden argv lists; DRAWS seeded
    metrics per space, uniform in [0.55, 1.9], M1-M3 with equal or random
    extra alphas in turn and every fourth one as a table; the near-equal
    coefficients of ROADMAP item 3 and the anisotropic scalings of item 4;
    the argvs that CHANGES.md names; the table format, --tol and the
    --no-* flags; usage errors; verify; and every representation command
    in table form."""
    argvs = [case["argv"] for name in GOLDEN for case in json.loads((ROOT / "tests" / "data" / name).read_text())]
    rng = random.Random(SEED)
    for sid, extra in EXTRA_ALPHAS.items():
        for k in range(DRAWS):
            alpha, beta, gamma = (rng.uniform(0.55, 1.9) for _ in range(3))
            extras = [rng.uniform(0.55, 1.9) if k % 4 == 3 else alpha for _ in range(extra)] if k % 2 else []
            argvs.append(_analyze(sid, alpha, beta, gamma, extras, *(["--format", "table"] if k % 4 == 1 else [])))
    # near-equal coefficients: one coefficient times 1 + d
    for d in (1e-4, 1e-6, 1e-8, 1e-10):
        argvs.append(_analyze("M1", 1.2, 1.3, 0.9, [1.2] * 6 + [1.2 * (1 + d)]))
        argvs.append(_analyze("M2", 1.2, 1.2 * (1 + d), 0.9))
        argvs.append(_analyze("M4", 1.0, 2.0 * (1 + d), 1.2))
    # anisotropic metrics: one of alpha, beta, gamma times 10^e
    for sid in EXTRA_ALPHAS:
        for which in range(3):
            for e in (-12, -7, -3, 3, 7, 12):
                coeffs = [1.0, 1.3, 0.8]
                coeffs[which] *= 10.0 ** e
                argvs.append(_analyze(sid, *coeffs))
    # named in CHANGES.md: extreme scalings and the beta ~ alpha parallel window
    for sid, alpha in (("M4", "1e22"), ("M4", "1e-22"), ("M1", "1e12"), ("M1", "1e-200"), ("M1", "1e-80")):
        argvs.append(["analyze", sid, "--alpha", alpha])
    argvs.append(_analyze("M4", 1.5503500970110742, 1.550351525773097, 1.3460363833547389))
    argvs.append(_analyze("M4", 1.7313819661320289, 1.731385980143484, 0.7177250069166251))
    for sid in EXTRA_ALPHAS:
        argvs += [["analyze", sid, *flags] for flags in (
            [], ["--format", "table"], ["--tol", "1e-10"], ["--no-spin"], ["--no-curvature"], ["--no-holonomy"])]
    argvs += [["analyze", "M2", "--alpha8", "1.5"], ["theta", "sp3", "--tol", "0"], ["analyze", "M5"]]
    argvs += [["verify"], ["verify", "--space", "M4"]]
    argvs += [argv + ["--format", "table"] for argv in (
        ["decompose", "lambda3"], ["decompose", "v14xv70"], ["theta", "sp3"], ["theta", "su3-adjoint"],
        ["subgroups"], ["liegroup", "su2"], ["liegroup", "su3"], ["liegroup", "su2+su2"])]
    return argvs


def _run(tree: Path, argv: list[str], threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GSTRUCT_TOL"}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    out = subprocess.run([sys.executable, "-m", "gstruct.cli", *argv], cwd=tree, env=env, capture_output=True,
                         timeout=600)
    return {"stdout": out.stdout.decode(), "stderr": out.stderr.decode(), "exit": f"{out.returncode}\n"}


def first_difference(a: str, b: str) -> str:
    """Where two texts first differ: the line and the two tokens (numbers
    and words whole, any other character alone)."""
    for line, (la, lb) in enumerate(zip(a.splitlines() + [""], b.splitlines() + [""]), 1):
        if la != lb:
            ta, tb = (re.findall(r"[\w.+-]+|\S", x) for x in (la, lb))
            k = next(i for i in range(max(len(ta), len(tb)) + 1) if ta[i:i + 1] != tb[i:i + 1])
            return f"line {line}: {ta[k] if k < len(ta) else '<end>'!r} vs {tb[k] if k < len(tb) else '<end>'!r}"
    return "line endings"


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev_a")
    p.add_argument("rev_b")
    p.add_argument("--blas-threads", type=int, default=1, help="BLAS threads of every gstruct process (default 1)")
    args = p.parse_args(argv)
    revs = [_git("rev-parse", "--short", f"{rev}^{{commit}}") for rev in (args.rev_a, args.rev_b)]
    argvs = corpus()
    with tempfile.TemporaryDirectory(prefix="gstruct-identity-") as tmp:
        trees = [Path(tmp) / name for name in ("a", "b")]
        try:
            for tree, rev in zip(trees, revs):
                _git("worktree", "add", "--detach", "--quiet", str(tree), rev)
            differ = 0
            for cmd in argvs:
                a, b = (_run(tree, cmd, args.blas_threads) for tree in trees)
                for stream in STREAMS:
                    if a[stream] != b[stream]:
                        differ += 1
                        print(f"differs  {stream:<6}  {' '.join(cmd)}  {first_difference(a[stream], b[stream])}",
                              flush=True)
        finally:
            for tree in trees:
                if tree.exists():
                    _git("worktree", "remove", "--force", str(tree))
    print(f"identity {revs[0]}..{revs[1]}: {len(argvs)} argvs x {len(STREAMS)} streams, {differ} differ "
          f"({args.blas_threads} BLAS thread{'s' if args.blas_threads != 1 else ''})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
