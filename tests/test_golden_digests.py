"""Golden SHA-256 digests of the benchmark's five seed-1 artifacts.

Seeded outputs are byte-identical for one numpy version on one SIMD target:
numpy dispatches ``exp`` and other ufuncs to the widest instruction set the
CPU offers, and its AVX-512 ``exp`` rounds differently from the narrower
kernels on some inputs. The learner amplifies such one-ulp differences, so
``golden_digests.json`` keys the digests by ``numpy <version> / <target>``,
where the target is the highest entry of numpy's ``__cpu_dispatch__`` that
is enabled in ``__cpu_features__``. A key with no stored digest skips.

The commands are the ones ``bench/workloads.py`` builds for seed 1, run
in-process through ``partialmix.cli.main`` as ``bench/worker.py`` runs them.
``bench/`` is only read; the configs the workloads write go to ``tmp_path``.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from partialmix import cli

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
GOLDEN = TESTS / "golden_digests.json"
WORKLOADS = ("switching-batch", "wide-switching-run", "validate")
SEED = 1
# numpy reads this when it is imported: the process then dispatches to
# AVX2 (X86_V3) kernels on an AVX-512 host
DISABLE_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def simd_target() -> str:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    enabled = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return enabled[-1] if enabled else "baseline"


def platform_key() -> str:
    return f"numpy {np.__version__} / {simd_target()}"


def expected_digests(key: str, workload: str) -> dict[str, str]:
    stored = json.loads(GOLDEN.read_text()).get(key, {}).get(workload)
    if stored is None:
        pytest.skip(f"no golden digests for {workload} on {key}")
    return stored


def load_workloads():
    if "bench_workloads" in sys.modules:
        return sys.modules["bench_workloads"]
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up by name
    sys.modules[spec.name] = module
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def recompute(workload: str, work: Path) -> dict[str, str]:
    """Run one workload's seed-1 commands and return its artifact digests."""
    workloads = load_workloads()
    built = workloads.build(workload, ROOT, SEED, work)
    artifacts = work / "artifacts"
    artifacts.mkdir()
    for argv in built.commands:
        argv = [str(artifacts) if arg == workloads.ARTIFACTS else arg for arg in argv]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        assert code == 0, argv
        # validate's artifact is its standard output, as the worker saves it
        stem = Path(argv[argv.index("--config") + 1]).stem
        (artifacts / f"{stem}.out").write_text(buffer.getvalue())
    return {
        name: hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
        for name in built.artifacts
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_1_artifacts_match_golden(workload, tmp_path):
    expected = expected_digests(platform_key(), workload)
    assert recompute(workload, tmp_path) == expected


def test_switching_batch_without_avx512(tmp_path):
    # the subprocess reports its own key: on a host without AVX-512 the
    # variable changes nothing and the case checks the same target again
    script = (
        "import json, sys; from pathlib import Path; import test_golden_digests as g; "
        "print(json.dumps([g.platform_key(), g.recompute('switching-batch', Path(sys.argv[1]))]))"
    )
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=DISABLE_AVX512,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(TESTS)]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    key, digests = json.loads(proc.stdout.strip().splitlines()[-1])
    assert digests == expected_digests(key, "switching-batch")
