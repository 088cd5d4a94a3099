"""The repository benchmark: three workloads through the public entry points.

    python3 perfbench/run.py --workload corpus-cold --seed 0 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

``corpus-cold``
    A serial ``sweep_corpus`` over the 211-program generated corpus of
    the seed, on a fresh ``ProfileStore`` and verdict store, then
    ``peer_analysis``.  Each pass runs in a fresh process.
``tables-cold``
    The 8 Table III/V programs, each through a fresh ``PrivAnalyzer``
    with the golden budget and no store.  Each pass runs in a fresh
    process.
``served-warm``
    A ``privanalyzer serve`` process over a store primed with the same
    8 programs; two closed-loop clients send ``analyze`` requests in a
    seeded order.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it probes every layer boundary from outside the program
and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from measure import (  # noqa: E402
    END_TO_END_METRICS,
    GOLDEN_BUDGET,
    GOLDEN_DIR,
    LAYER_METRICS,
    Op,
    TABLE_PROGRAMS,
    check_exact,
    error_rate,
    finish_layers,
    golden_mismatch,
    host_factor,
    latency_ms,
    layer_shares,
    load_goldens,
    pass_totals,
    per_pass_layers,
    reference_seconds,
    scale_times,
)

WORKLOADS = ("corpus-cold", "tables-cold", "served-warm")

#: Closed-loop clients of served-warm; never more than ``nproc``.
CLIENTS = 2
#: Set-ups per served-warm run; ``setup_s`` is their median.
SERVED_SETUPS = 3
#: Single-client requests per program that give ``serve.wait_ms`` its base.
SINGLE_CLIENT_REPEATS = 3
#: Requests per closed-loop window of served-warm (two schedule blocks,
#: so every window sees each program twice).
WINDOW_OPS = 16
#: Reference samples taken between two windows of served-warm.
REFERENCE_GAP_SAMPLES = 3
PASS_TIMEOUT = 120.0
STARTUP_TIMEOUT = 30.0


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git; ``unknown``
    in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


# -- cold workloads: one fresh process per pass --------------------------------


def run_worker(args: List[str]) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), *args]
    completed = subprocess.run(
        command, env=child_env(), stdout=subprocess.PIPE, timeout=PASS_TIMEOUT, check=True
    )
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


def cold_passes(mode: str, seed: int, seconds: float, trace: bool, tmp: Path) -> List[dict]:
    """Passes until ``seconds`` have elapsed; with ``trace``, alternate
    untraced and traced passes, at least two of each."""
    passes: List[dict] = []
    start = time.monotonic()
    while (
        time.monotonic() - start < seconds
        or len(passes) < (4 if trace else 2)
    ):
        traced = trace and len(passes) % 2 == 1
        pass_dir = tmp / f"pass-{len(passes)}"
        spawned = time.monotonic()
        args = [mode, "--seed", str(seed), "--tmp", str(pass_dir)]
        result = run_worker(args + (["--trace"] if traced else []))
        shutil.rmtree(pass_dir, ignore_errors=True)
        factor = result["factor"] = host_factor(result["references"])
        result["setup_s"] = (result["first_op"] - spawned) * factor
        result["traced"] = traced
        result["ops"] = [
            Op(name, seconds * factor, failure) for name, seconds, failure in result["ops"]
        ]
        result["window"] = (len(result["ops"]), result["wall_s"] * factor, result["cpu_s"] * factor)
        passes.append(result)
    return passes


def median_rate(windows: List[tuple]) -> float:
    return statistics.median(n / wall for n, wall, _ in windows)


def summarize(ops: List[Op], windows: List[tuple], setup_s: List[float],
              peak_rss_mb: float) -> Dict[str, Optional[float]]:
    """End-to-end metrics from host-normalized times.  ``windows`` holds
    ``(ops, wall s, cpu s)`` per pass or per window of requests; rates
    are their medians, so a burst of load from elsewhere on the host
    moves one window, not the result."""
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": median_rate(windows),
        "op_p50_ms": latency_ms(ops, 0.5),
        "cpu_ms_per_op": statistics.median(1000.0 * cpu / n for n, _, cpu in windows),
        "peak_rss_mb": peak_rss_mb,
    }


def cold_workload(mode: str, seed: int, seconds: float, trace: bool, tmp: Path):
    passes = cold_passes(mode, seed, seconds, trace, tmp)
    plain = [p for p in passes if not p["traced"]]
    ops = [op for p in plain for op in p["ops"]]
    windows = [p["window"] for p in plain]
    metrics = summarize(
        ops,
        windows,
        [p["setup_s"] for p in plain],
        statistics.median(p["peak_rss_mb"] for p in plain),
    )
    factor = statistics.median(p["factor"] for p in plain)
    if not trace:
        return ops, windows, factor, metrics, None, None
    traced = [p for p in passes if p["traced"]]
    totals = [pass_totals(p["probes"], p["factor"]) for p in traced]
    check_exact(totals, f"{mode} seed {seed}")
    layers = per_pass_layers(totals)
    traced_rate = median_rate([p["window"] for p in traced])
    layers["trace.overhead_pct"] = (metrics["ops_per_s"] / traced_rate - 1.0) * 100.0
    shares = layer_shares(layers, statistics.median(p["window"][1] for p in traced))
    traced_ops = [op for p in traced for op in p["ops"]]
    return ops + traced_ops, windows, factor, metrics, layers, shares


# -- served-warm ---------------------------------------------------------------


class Server:
    """A ``privanalyzer serve`` process (or the traced launcher) and its
    closed-loop client connections."""

    def __init__(self, store: Path, tmp: Path, probes_out: Optional[Path] = None) -> None:
        from repro.serve import ServeClient

        self.port_file = tmp / f"port-{time.monotonic_ns()}"
        if probes_out is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [sys.executable, str(HERE / "worker.py"), "serve",
                       "--probes-out", str(probes_out)]
        self.process = subprocess.Popen(
            command + ["--store", str(store), "--port-file", str(self.port_file)],
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.clients = []
        try:
            host, port = self._wait_for_port()
            self.clients = [ServeClient(host, port) for _ in range(CLIENTS)]
            for client in self.clients:
                # Lazy imports in the server finish here, not in a timed op.
                client.analyze("ping", **GOLDEN_BUDGET)
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self):
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}")
            try:
                text = self.port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                host, port = text.strip().rsplit(":", 1)
                return host, int(port)
            time.sleep(0.02)
        raise RuntimeError("server never published its port")

    def proc(self, name: str) -> str:
        return (Path("/proc") / str(self.process.pid) / name).read_text()

    def cpu_s(self) -> float:
        fields = self.proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def status(self, field: str) -> int:
        for line in self.proc("status").splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
        raise KeyError(field)

    def stop(self) -> None:
        from repro.serve import ServeError
        from repro.serve.protocol import ProtocolError

        try:
            if self.clients:
                self.clients[0].shutdown()
                self.process.wait(timeout=STARTUP_TIMEOUT)
        except (ServeError, ProtocolError, OSError, subprocess.TimeoutExpired):
            pass  # killed below
        finally:
            for client in self.clients:
                client.close()
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()


def schedule(seed: int):
    """Seeded blocks, each a permutation of the 8 programs, so every
    stretch of the run sees the same mix."""
    rng = random.Random(f"served:{seed}")
    while True:
        block = list(TABLE_PROGRAMS)
        rng.shuffle(block)
        yield from block


def request(client, program: str) -> tuple:
    """One timed ``analyze`` request: (program, seconds, response, error)."""
    from repro.serve import ServeError
    from repro.serve.protocol import ProtocolError

    start = time.perf_counter()
    try:
        response, error = client.analyze(program, **GOLDEN_BUDGET), None
    except (ServeError, ProtocolError, OSError) as exc:
        response, error = None, f"server error: {exc}"
    return program, time.perf_counter() - start, response, error


def reference_samples() -> List[float]:
    return [reference_seconds() for _ in range(REFERENCE_GAP_SAMPLES)]


def closed_loop(server: Server, seed: int, seconds: float):
    """Windows of ``WINDOW_OPS`` requests over the clients' connections,
    each client sending its next request when its last one answered.
    Between windows, with the server idle, the driver samples the
    reference workload; each window's times are scaled by the samples
    around it.  Returns the results, the windows and the run's factor."""
    programs = schedule(seed)
    results, windows = [], []
    reference_seconds()  # the first run in a process also grows the heap
    references = [reference_samples()]
    deadline = time.monotonic() + seconds
    while not windows or time.monotonic() < deadline:
        batch = iter([next(programs) for _ in range(WINDOW_OPS)])
        lock = threading.Lock()
        window: List[tuple] = []

        def client_loop(client) -> None:
            while True:
                with lock:
                    program = next(batch, None)
                if program is None:
                    return
                window.append(request(client, program))

        threads = [
            threading.Thread(target=client_loop, args=(client,)) for client in server.clients
        ]
        cpu_before, wall_before = server.cpu_s(), time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall, cpu = time.perf_counter() - wall_before, server.cpu_s() - cpu_before
        references.append(reference_samples())
        factor = host_factor(references[-2] + references[-1])
        windows.append((len(window), wall * factor, cpu * factor))
        results += [(program, elapsed * factor, response, error)
                    for program, elapsed, response, error in window]
    return results, windows, host_factor([sample for gap in references for sample in gap])


def single_client(server: Server, seed: int):
    """Every program ``SINGLE_CLIENT_REPEATS`` times from one client;
    returns the scaled results and the factor."""
    programs = schedule(seed)
    before = reference_samples()
    results = [
        request(server.clients[0], next(programs))
        for _ in range(SINGLE_CLIENT_REPEATS * len(TABLE_PROGRAMS))
    ]
    factor = host_factor(before + reference_samples())
    return [(program, elapsed * factor, response, error)
            for program, elapsed, response, error in results], factor


def check_responses(results) -> List[Op]:
    from repro.corpus.profile import profile_from_exposure

    goldens = load_goldens(TABLE_PROGRAMS)
    ops = []
    for program, elapsed, response, error in results:
        if error is None:
            served = response["served"]
            exposure = response["result"]
            verdicts = [v for phase in exposure["phases"] for v in phase["verdicts"].values()]
            if served["store_misses"] or served["published"] or not served["store_hits"]:
                error = f"not fully store-served: {served}"
            elif "timeout" in verdicts:
                error = "TIMEOUT verdict"
            else:
                error = golden_mismatch(
                    profile_from_exposure(exposure).to_dict(), goldens[program]
                )
        ops.append(Op(program, elapsed, error))
    return ops


def prime_store(store: Path) -> None:
    run_worker(["prime", "--store", str(store)])


def served_workload(seed: int, seconds: float, trace: bool, tmp: Path):
    if CLIENTS > nproc():
        raise SystemExit(f"served-warm needs {CLIENTS} CPUs for its clients; nproc is {nproc()}")
    setups = []
    server = None
    try:
        for index in range(1 if trace else SERVED_SETUPS):
            if server is not None:
                server.stop()
            start = time.monotonic()
            store = tmp / f"store-{index}"
            prime_store(store)
            server = Server(store, tmp)
            setups.append(time.monotonic() - start)
        window = seconds / 2 if trace else seconds
        results, windows, factor = closed_loop(server, seed, window)
        peak_rss_mb = server.status("VmHWM") / 1024.0
        rejected = server.clients[0].stats()["store"]["rejected"]
    finally:
        if server is not None:
            server.stop()
    ops = check_responses(results)
    if rejected:
        for op in ops:
            op.failure = op.failure or f"store rejected {rejected} entries"
    metrics = summarize(ops, windows, [setup * factor for setup in setups], peak_rss_mb)
    if not trace:
        return ops, windows, factor, metrics, None, None
    traced_ops, layers, shares = traced_serve(seed, window, tmp, store, metrics["ops_per_s"])
    return ops + traced_ops, windows, factor, metrics, layers, shares


def traced_serve(seed: int, seconds: float, tmp: Path, store: Path, plain_rate: float):
    """Single-client baseline, then the closed loop, against a probed server."""
    probes_out = tmp / "probes.json"
    server = Server(store, tmp, probes_out=probes_out)
    threads_peak = [server.status("Threads")]
    sampling = threading.Event()

    def sample_threads() -> None:
        while not sampling.wait(0.01):
            try:
                threads_peak.append(server.status("Threads"))
            except (OSError, KeyError):
                return

    sampler = threading.Thread(target=sample_threads)
    sampler.start()
    try:
        single, single_factor = single_client(server, seed)
        results, windows, _ = closed_loop(server, seed, seconds)
    finally:
        sampling.set()
        sampler.join()
        server.stop()
    ops = check_responses(single + results)
    snapshot = json.loads(probes_out.read_text())

    by_program: Dict[str, List[Dict[str, float]]] = {}
    for program, record in snapshot["analyses"]:
        by_program.setdefault(program, []).append(record)
    for program, records in by_program.items():
        check_exact(records, f"served-warm {program}")
    # Layer times come from the single-client requests, which the server
    # handled one at a time after one warm-up request per connection:
    # under two clients a layer's wall time also counts GIL waits.
    single_records: Dict[str, List[Dict[str, float]]] = {}
    for program, record in snapshot["analyses"][CLIENTS:CLIENTS + len(single)]:
        single_records.setdefault(program, []).append(scale_times(record, single_factor))
    layers: Dict[str, float] = {}
    for records in single_records.values():
        for name in {name for record in records for name in record}:
            layers[name] = layers.get(name, 0) + statistics.median(
                record.get(name, 0) for record in records
            )
    layers = finish_layers(layers)

    single_median = {
        program: statistics.median(e for p, e, _, _ in single if p == program)
        for program in TABLE_PROGRAMS
    }
    hits = sum(r["served"]["store_hits"] for _, _, r, _ in results if r)
    lookups = hits + sum(r["served"]["store_misses"] for _, _, r, _ in results if r)
    layers.update({
        "serve.requests": len(single) + len(results),
        "serve.store_hit_rate": hits / lookups if lookups else 0.0,
        "serve.wait_ms": 1000.0 * statistics.median(
            elapsed - single_median[program] for program, elapsed, _, _ in results
        ),
        "serve.server_threads_peak": max(threads_peak),
        "trace.overhead_pct": (plain_rate / median_rate(windows) - 1.0) * 100.0,
    })
    shares = layer_shares(layers, sum(single_median.values()))
    return ops, layers, shares


# -- entry point ---------------------------------------------------------------


def report(workload: str, seed: int, trace: bool, ops: List[Op], windows, factor: float,
           metrics, layers, shares) -> None:
    """Human-readable lines before the result line: provenance, every
    metric with its unit, the tail percentile and the error rate."""
    print(
        f"perfbench {workload} seed={seed} trace={int(trace)} sha={git_sha()} "
        f"nproc={nproc()} python={platform.python_version()}"
    )
    print(f"  host factor {factor:.4f}: times are scaled to the nominal host "
          f"(measured time = reported time / factor)")
    p90 = latency_ms(ops, 0.9)
    failed = sum(1 for op in ops if op.failure)
    rows = [(name, metrics[name], unit) for name, unit in END_TO_END_METRICS.items()]
    rows.append(("op_p90_ms", p90 if p90 is not None else f"omitted (<100 ops: {len(ops)})", "ms"))
    rows.append(("op_error_rate", error_rate(ops), f"({failed}/{len(ops)})"))
    if layers is not None:
        rows += [(name, layers[name], unit) for name, unit in LAYER_METRICS.items()]
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<28} {shown:>14} {unit}")
    if shares:
        print("  layer self-time shares: " + ", ".join(
            f"{name} {share:.1%}" for name, share in sorted(shares.items(), key=lambda kv: -kv[1])
        ))
    if windows:
        rates = sorted(n / wall for n, wall, _ in windows)
        print(f"  ops_per_s over {len(rates)} windows: min {rates[0]:.4g}, "
              f"median {statistics.median(rates):.4g}, max {rates[-1]:.4g}")
    for op in ops:
        if op.failure:
            print(f"  FAILED {op.name}: {op.failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file() or not GOLDEN_DIR.is_dir():
        log(f"no program sources under {ROOT}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        if args.workload == "served-warm":
            outcome = served_workload(args.seed, args.seconds, trace, tmp)
        else:
            mode = args.workload.split("-")[0]
            outcome = cold_workload(mode, args.seed, args.seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    ops, windows, factor, metrics, layers, shares = outcome
    report(args.workload, args.seed, trace, ops, windows, factor, metrics, layers, shares)
    failed = sum(1 for op in ops if op.failure)
    chosen = layers if trace else metrics
    units = LAYER_METRICS if trace else END_TO_END_METRICS
    if any(value is None for value in chosen.values()):
        log("too few ops for a reported percentile")
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": chosen[name] if chosen[name] != float("inf") else None, "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
