"""Replay the mutation catalogue: each entry on its own copy, only its tests.

    python3 mutants/run.py                  # every entry
    python3 mutants/run.py NAME [NAME ...]  # the named entries

Run it from the root of a checkout.  The clean tree must pass every test
the catalogue names; then, for each entry, src/, tests/, perfbench/,
pyproject.toml and BENCHMARK.json are copied under a temporary directory,
the entry's old string is replaced there, and pytest runs the entry's
tests and, when none of them fails, its pins.  The verdict is "killed" (a
test failed), "pinned only" (only a pin failed) or "survived".  The exit
status is 0 when every entry gets the verdict it expects.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from catalogue import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json")


def copy_tree(dst: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dst / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dst / name)


def failed(root: Path, tests) -> bool:
    """True when one of the tests fails in the tree at root, False when all
    pass; RuntimeError on anything else (a bad test id, a collection error)."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("TRIGPOS_PRECISION", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}")
    return proc.returncode == 1


def verdict(mutant) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        copy_tree(root)
        path = root / mutant.path
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise RuntimeError(f"{mutant.name}: the old string is not in {mutant.path} once")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        if mutant.tests and failed(root, mutant.tests):
            return "killed"
        if mutant.pins and failed(root, mutant.pins):
            return "pinned only"
        return "survived"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown entries: {sorted(unknown)}", file=sys.stderr)
        return 2
    named = sorted({t for m in chosen for t in (*m.tests, *m.pins)})
    if failed(ROOT, named):
        print("the clean tree fails a test the catalogue names", file=sys.stderr)
        return 2
    wrong = 0
    for mutant in chosen:
        got = verdict(mutant)
        wrong += got != mutant.expect
        mark = "ok  " if got == mutant.expect else "FAIL"
        print(f"{mark} {mutant.name}: {got} (expected {mutant.expect})", flush=True)
    print(f"{len(chosen) - wrong} of {len(chosen)} entries as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
