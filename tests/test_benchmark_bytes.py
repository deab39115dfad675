"""Byte identity of the benchmark commands on the benchmark's own inputs.

The inputs come from ``perfbench/inputs.py`` for seeds 7 and 12, written
under a temporary directory. Each of the five benchmark commands runs
through ``cli.main``, and the SHA-256 of its stdout and of every output file
but ``manifest.txt`` (timestamps and paths) is compared with
``tests/data/benchmark_sha256.txt``. The hashes depend on the numpy and BLAS
builds, so the file names the versions it was recorded with and the test
is skipped on others. Each seed runs at the default block budget
(``util.BLOCK_CELLS``) and at the smallest, one item per run: how bounded
loops split their work must move no output bit.

To re-record after a change that moves bits on purpose (and say which
outputs moved, and why, in CHANGES.md):

    PYTHONPATH=src python tests/test_benchmark_bytes.py
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from slateval import util
from slateval.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "benchmark_sha256.txt"
SEEDS = (7, 12)
COMMANDS = ("sweep-uniform", "sweep-softmax", "optimize", "evaluate-explicit", "diagnose")


def _inputs_module():
    """``perfbench/inputs.py``, imported by path (perfbench is not a package)."""
    name = "perfbench_inputs"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "inputs.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _builds() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = ".".join(str(blas.get("version")).split(".")[:3])
    return f"numpy {np.__version__}, {blas.get('name')} {version}"


def _argv(gen, command: str, seed: int, work: Path) -> list:
    """The command's CLI arguments, after writing its inputs under ``work``."""
    out = ["--out-dir", str(work / command / "out"), "--threads", "1"]
    if command in ("sweep-uniform", "sweep-softmax", "optimize"):
        files = gen.generate(command, seed, work / command / "inputs").files
        name = "optimize" if command == "optimize" else "experiment"
        return [name, "--config", str(files["config"]), *out]
    files = gen.generate("evaluate-explicit", seed, work / command / "inputs").files
    space = f"ranking:m={gen.EVALUATE['m']},slots={gen.EVALUATE['slots']}"
    policies = ["--logging-policy", str(files["logging_policy"]),
                "--target-policy", str(files["target_policy"]), "--space", space]
    if command == "diagnose":
        return ["diagnose", *policies, *out]
    return ["evaluate", "--logs", str(files["logs"]), *policies, "--estimator", "pi",
            "--estimator", "ips", "--estimator", "wips", "--diagnostics", *out]


def _run(argv: list) -> bytes:
    """Exit status 0 and the stdout of one ``cli.main`` call."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(argv)
    assert code == 0, argv
    return stdout.getvalue().encode()


def _digests(seed: int, work: Path) -> list[str]:
    """One ``seed command output sha256`` line per stdout and output file."""
    gen = _inputs_module()
    lines = []
    for command in COMMANDS:
        stdout = _run(_argv(gen, command, seed, work))
        lines.append(f"{seed} {command} stdout {hashlib.sha256(stdout).hexdigest()}")
        for path in sorted((work / command / "out").iterdir()):
            if path.name != "manifest.txt":
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{seed} {command} {path.name} {digest}")
    return lines


def _recorded() -> tuple[str, list[str]]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return lines[0].removeprefix("# "), lines[1:]


@pytest.mark.parametrize(
    "seed, budget",
    [pytest.param(seed, None, id=str(seed)) for seed in SEEDS]
    + [pytest.param(seed, 1, id=f"{seed}-one-item-runs") for seed in SEEDS],
)
def test_benchmark_outputs_match_recorded_hashes(seed, budget, tmp_path, monkeypatch):
    builds, recorded = _recorded()
    if builds != _builds():
        pytest.skip(f"hashes recorded with {builds}; this is {_builds()}")
    if budget is not None:
        monkeypatch.setattr(util, "BLOCK_CELLS", budget)
    assert _digests(seed, tmp_path) == [line for line in recorded if line.startswith(f"{seed} ")]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lines = [line for seed in SEEDS for line in _digests(seed, Path(tmp) / str(seed))]
    GOLDEN.write_text("\n".join([f"# {_builds()}", *lines]) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} hashes to {GOLDEN}")
