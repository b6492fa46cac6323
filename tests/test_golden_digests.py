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

Across targets the switching-batch games stay close for a while: over
their first 2,000 rounds q differs by at most 1.1e-16. On an AVX-512 host
|dq| first passes 1e-14 at rounds 3,525 and 4,630 of seeds 2 and 3, and
the first selection differs at rounds 7,169 and 8,151.
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
from partialmix.config import load_config
from partialmix.environment import run_game

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
GOLDEN = TESTS / "golden_digests.json"
WORKLOADS = ("switching-batch", "wide-switching-run", "validate")
SEED = 1
# numpy reads this when it is imported: the process then dispatches to
# AVX2 (X86_V3) kernels on an AVX-512 host
DISABLE_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
# cross-target bounds on the switching-batch games: sup |dq| over the first
# Q_ROUNDS rounds, and equal selections through SELECTION_ROUNDS
Q_ROUNDS, Q_BOUND = 2000, 1e-14
SELECTION_ROUNDS = 4000


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


def subprocess_without_avx512(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter whose numpy skips AVX-512, with
    this module importable; return its standard output."""
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=DISABLE_AVX512,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(TESTS)]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def play_switching_prefix(path: str) -> None:
    """Save q and the selections of the switching-batch seed-1 games over
    their first SELECTION_ROUNDS rounds to ``path`` (an ``.npz`` file)."""
    workloads = load_workloads()
    experiment = load_config(ROOT / workloads.SHIPPED_SWITCHING).experiment
    losses = experiment.loss_process
    full = losses.generate
    # the full-horizon game's losses, cut to the rounds played
    losses.generate = lambda horizon, rng: full(experiment.horizon, rng)[:horizon]
    games = {}
    for i in range(workloads.SWITCHING_GAMES):
        seed = SEED * workloads.SWITCHING_GAMES + i
        game = run_game(
            experiment.learner_config, losses, experiment.feedback_process, SELECTION_ROUNDS, seed
        )
        games[f"q_{seed}"], games[f"selected_{seed}"] = game.q, game.selected
    np.savez(path, **games)


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
    stdout = subprocess_without_avx512(script, str(tmp_path))
    key, digests = json.loads(stdout.strip().splitlines()[-1])
    assert digests == expected_digests(key, "switching-batch")


def test_switching_games_agree_across_targets(tmp_path):
    # without AVX-512 on the host both sides run the same kernels: dq is 0
    here, there = tmp_path / "here.npz", tmp_path / "there.npz"
    play_switching_prefix(str(here))
    subprocess_without_avx512(
        "import sys, test_golden_digests as g; g.play_switching_prefix(sys.argv[1])", str(there)
    )
    here, there = np.load(here), np.load(there)
    assert sorted(here.files) == sorted(there.files)
    for name in here.files:
        if name.startswith("q_"):
            dq = np.abs(here[name] - there[name])[:Q_ROUNDS]
            assert dq.max() <= Q_BOUND, name
        else:
            np.testing.assert_array_equal(here[name], there[name], err_msg=name)
