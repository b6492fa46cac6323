"""One repeat of a workload in a fresh interpreter.

Usage: ``python3 bench/worker.py SPEC.json``. The spec names the checkout
root, the configs to load during set-up, the CLI commands to run, the
artifact directory and whether to trace. The last line of standard output
is a JSON object with the set-up end (``time.monotonic``, which on Linux
reads the same system-wide clock as the parent's), the commands' wall
time, peak RSS, each command's exit code, the per-seed batch results and,
when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import partialmix
    from partialmix import cli, config, evaluation

    if Path(partialmix.__file__).resolve().parent != (src / "partialmix").resolve():
        print(f"worker: imported partialmix from {partialmix.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # per-seed batch results are not in batch.json; keep them for the checks
    batch_results: list[dict] = []
    summarize_runs = evaluation.summarize_runs

    def capture(bundle, results):
        batch_results.extend(dataclasses.asdict(r) for r in results)
        return summarize_runs(bundle, results)

    for module in (evaluation, cli):
        if getattr(module, "summarize_runs", None) is summarize_runs:
            module.summarize_runs = capture

    for path in spec["configs"]:
        config.load_config(path)
    ready_at = time.monotonic()

    artifacts = Path(spec["artifacts"])
    artifacts.mkdir(parents=True, exist_ok=True)
    outputs = []
    start = time.perf_counter()
    cpu_start = time.process_time()
    for argv in spec["commands"]:
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(argv))
        except Exception:
            traceback.print_exc()
            code = None
        outputs.append({"argv": argv, "exit_code": code, "stdout": buffer.getvalue()})
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for entry in outputs:
        stem = Path(entry["argv"][entry["argv"].index("--config") + 1]).stem
        (artifacts / f"{stem}.out").write_text(entry["stdout"])

    result = {
        "ready_at": ready_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": peak_rss_kb,
        "outputs": outputs,
        "batch_results": batch_results,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
