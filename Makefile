.PHONY: install test bench bench-counters examples reproduce trace-smoke ledger-smoke profile-smoke fleet-smoke fuzz-smoke fuzz corpus-smoke serve-smoke clean

TRACE_SMOKE_OUT := /tmp/privanalyzer-trace-smoke.jsonl
LEDGER_SMOKE_DIR := /tmp/privanalyzer-ledger-smoke
PROFILE_SMOKE_DIR := /tmp/privanalyzer-profile-smoke
FLEET_SMOKE_DIR := /tmp/privanalyzer-fleet-smoke
CORPUS_SMOKE_DIR := /tmp/privanalyzer-corpus-smoke
SERVE_SMOKE_DIR := /tmp/privanalyzer-serve-smoke
BENCH_COUNTERS_DIR := /tmp/privanalyzer-bench-counters
BENCH_COUNTERS_GOLDEN := tests/golden/bench_counters.json
FUZZ_SEED ?= 0
FUZZ_RUNS ?= 300

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Exact-counter gate (CI): one traced perfbench run per workload at
# seed 0.  Every run must be correct with no failed op, and every metric
# whose unit is `count` must equal the committed golden value, except
# serve.requests and serve.server_threads_peak, which depend on time and
# sampling.  A mismatch names each counter that moved.  Regenerate the
# golden file with `make bench-counters UPDATE_GOLDEN=1`.  The three
# result lines are left in $(BENCH_COUNTERS_DIR)/<workload>.json.
bench-counters:
	rm -rf $(BENCH_COUNTERS_DIR) && mkdir -p $(BENCH_COUNTERS_DIR)
	for workload in corpus-cold tables-cold served-warm; do \
		python3 perfbench/run.py --workload $$workload --seed 0 --seconds 10 \
			--trace 1 > $(BENCH_COUNTERS_DIR)/$$workload.txt || exit 1; \
		tail -n 1 $(BENCH_COUNTERS_DIR)/$$workload.txt \
			> $(BENCH_COUNTERS_DIR)/$$workload.json; done
	python3 -c "\
	import json, os, sys; \
	workloads = ('corpus-cold', 'tables-cold', 'served-warm'); \
	timed = {'serve.requests', 'serve.server_threads_peak'}; \
	results = {w: json.load(open(f'$(BENCH_COUNTERS_DIR)/{w}.json')) for w in workloads}; \
	wrong = [f'{w}: correct={r[\"correct\"]}, failed={r[\"failed\"]}' \
	         for w, r in results.items() if not r['correct'] or r['failed']]; \
	wrong and sys.exit('bench-counters FAILED: ' + '; '.join(wrong)); \
	measured = {w: {name: metric['value'] for name, metric in r['metrics'].items() \
	                if metric['unit'] == 'count' and name not in timed} \
	            for w, r in results.items()}; \
	os.environ.get('UPDATE_GOLDEN') and open('$(BENCH_COUNTERS_GOLDEN)', 'w').write( \
	    json.dumps(measured, indent=2, sort_keys=True) + '\n'); \
	golden = json.load(open('$(BENCH_COUNTERS_GOLDEN)')); \
	moved = [f'{w} {name}: golden {golden.get(w, {}).get(name)}, measured {measured.get(w, {}).get(name)}' \
	         for w in sorted(set(golden) | set(measured)) \
	         for name in sorted(set(golden.get(w, {})) | set(measured.get(w, {}))) \
	         if golden.get(w, {}).get(name) != measured.get(w, {}).get(name)]; \
	moved and sys.exit('bench-counters FAILED, counters moved:\n  ' + '\n  '.join(moved)); \
	print(f'bench-counters ok: {sum(map(len, measured.values()))} counters over ' \
	      f'{len(workloads)} workloads match $(BENCH_COUNTERS_GOLDEN)')"

# Regenerate every paper table and figure with the printed series visible.
reproduce:
	pytest benchmarks/ --benchmark-only -s -q

# Observability smoke test: a traced analyze run must emit valid JSONL
# spans covering every pipeline stage (see docs/OBSERVABILITY.md).
trace-smoke:
	PYTHONPATH=src python -m repro.cli analyze passwd --trace \
		--trace-out $(TRACE_SMOKE_OUT) --profile > /dev/null
	PYTHONPATH=src python -c "\
	import json, sys; \
	lines = [line for line in open('$(TRACE_SMOKE_OUT)') if line.strip()]; \
	assert lines, 'trace JSONL is empty'; \
	names = {json.loads(line)['name'] for line in lines}; \
	missing = {'compile', 'autopriv.transform', 'chronopriv-run', 'rosa.query'} - names; \
	assert not missing, f'spans missing: {missing}'; \
	print(f'trace-smoke ok: {len(lines)} spans, stages {sorted(names)}')"

# Run-ledger smoke test: two identical analyze runs must diff clean
# (exit 0).  The wide perf tolerance keeps CI timing noise out of the
# gate; verdicts, exposure and syscall surfaces are compared exactly.
ledger-smoke:
	rm -rf $(LEDGER_SMOKE_DIR)
	PYTHONPATH=src python -m repro.cli analyze passwd \
		--ledger $(LEDGER_SMOKE_DIR)/run1 > /dev/null
	PYTHONPATH=src python -m repro.cli analyze passwd \
		--ledger $(LEDGER_SMOKE_DIR)/run2 > /dev/null
	PYTHONPATH=src python -m repro.cli diff \
		$(LEDGER_SMOKE_DIR)/run1 $(LEDGER_SMOKE_DIR)/run2 \
		--perf-tolerance 3.0

# Hot-path profiler smoke test: a profiled analyze run must emit a
# non-empty collapsed-stack file (flamegraph.pl grammar) and a JSON
# report whose rosa.search root attributes >= 95% of its wall time to
# named frames (see docs/PERFORMANCE.md).
profile-smoke:
	rm -rf $(PROFILE_SMOKE_DIR)
	PYTHONPATH=src python -m repro.cli profile passwd \
		--out $(PROFILE_SMOKE_DIR) > /dev/null
	PYTHONPATH=src python -c "\
	import json, re; \
	lines = [line for line in open('$(PROFILE_SMOKE_DIR)/profile.collapsed') if line.strip()]; \
	assert lines, 'collapsed profile is empty'; \
	assert all(re.fullmatch(r'[^ ]+(;[^ ]+)* \d+', line.strip()) for line in lines), 'bad collapsed-stack line'; \
	report = json.load(open('$(PROFILE_SMOKE_DIR)/profile.json')); \
	assert report['schema'] == 1, report['schema']; \
	search = report['roots']['rosa.search']; \
	assert search['attributed_fraction'] >= 0.95, search; \
	assert report['roots']['vm']['attributed_fraction'] >= 0.95, report['roots']['vm']; \
	print(f'profile-smoke ok: {len(lines)} stacks, rosa.search ' \
	      f'{search[\"attributed_fraction\"]:.1%} attributed')"

# Fleet-telemetry smoke test: a --jobs 4 process-pool rosa run must
# merge one telemetry capsule per worker — a single Perfetto trace with
# a distinct track per worker, a process-mode workers.json section in
# the ledger, no lump worker:pool inflight frame in the profile,
# and >= 95% of each worker's execute time attributed in the profiler
# report (see docs/OBSERVABILITY.md).  The queries are vulnerable by
# design, so the rosa exit code 1 is expected.
fleet-smoke:
	rm -rf $(FLEET_SMOKE_DIR) && mkdir -p $(FLEET_SMOKE_DIR)
	for i in 1 2 3 4; do \
		sed "s/ruid : 11/ruid : 1$$i/" examples/queries/figure2.rosa \
			> $(FLEET_SMOKE_DIR)/q$$i.rosa || exit 1; done
	PYTHONPATH=src python -m repro.cli rosa \
		$(FLEET_SMOKE_DIR)/q1.rosa $(FLEET_SMOKE_DIR)/q2.rosa \
		$(FLEET_SMOKE_DIR)/q3.rosa $(FLEET_SMOKE_DIR)/q4.rosa \
		--jobs 4 --ledger $(FLEET_SMOKE_DIR)/ledger \
		--perfetto-out $(FLEET_SMOKE_DIR)/trace.perfetto.json \
		--profile-out $(FLEET_SMOKE_DIR)/prof > /dev/null; \
		test $$? -le 1
	PYTHONPATH=src python -c "\
	import json; \
	trace = json.load(open('$(FLEET_SMOKE_DIR)/trace.perfetto.json')); \
	tracks = {e['args']['name'] for e in trace \
	          if e.get('ph') == 'M' and e['name'] == 'thread_name'}; \
	workers = {name for name in tracks if name.startswith('worker:')}; \
	assert len(workers) >= 2, f'expected multiple worker tracks, got {tracks}'; \
	fleet = json.load(open('$(FLEET_SMOKE_DIR)/ledger/workers.json')); \
	assert fleet['workers'], fleet; \
	assert fleet['mode'] == 'process', fleet['mode']; \
	prof = json.load(open('$(FLEET_SMOKE_DIR)/ledger/profile.json')); \
	assert not [r for r in prof['records'] if r['stack'][:2] == ['engine', 'worker:pool']], \
	       'unexpected worker:pool inflight frame'; \
	fractions = {w: s['attributed_fraction'] for w, s in prof['workers'].items()}; \
	assert fractions and all(f >= 0.95 for f in fractions.values()), fractions; \
	print(f'fleet-smoke ok: tracks {sorted(workers)}, ' \
	      f'{len(fleet[\"workers\"])} ledger worker(s), ' \
	      f'min attribution {min(fractions.values()):.1%}')"

# Conformance fuzz smoke (CI gate, ~35s): a fixed-seed campaign over the
# six default differential oracle families (cache, pools, vm — compiled
# VM core vs reference evaluator — ledger, profile and store), a second-seed
# 500-run campaign of the `vm` family alone (~5s: every closure
# specialization of the compiled core meets many random programs), plus
# the marker-gated pytest suite.
# See docs/TESTING.md.
fuzz-smoke:
	PYTHONPATH=src python -m repro.cli fuzz --seed 0 --runs 25
	PYTHONPATH=src python -m repro.cli fuzz --seed 1 --runs 500 --oracle vm
	PYTHONPATH=src python -m pytest tests/ -m fuzz -q

# Nightly-scale campaign (not a CI gate): every oracle family including
# the metamorphic properties, at a real run count.  Override with
# FUZZ_SEED / FUZZ_RUNS, e.g. `make fuzz FUZZ_SEED=$$(date +%s)`.
fuzz:
	PYTHONPATH=src python -m repro.cli fuzz \
		--seed $(FUZZ_SEED) --runs $(FUZZ_RUNS) --oracle all

# Corpus + peers smoke test (CI gate): a seeded 32-program daemon
# corpus with one planted CAP_SYS_ADMIN hoarder.  The peers report must
# rank the violator top-1 with the report's only capability finding,
# and a warm rerun over the same profile store must serve every program
# from cache.  Flipping one value inside one stored profile must then be
# caught: the rerun rejects and recomputes exactly that profile (31 hits,
# 1 miss) and its report is byte-identical to the cold one (see
# docs/CORPUS.md).
corpus-smoke:
	rm -rf $(CORPUS_SMOKE_DIR)
	PYTHONPATH=src python -m repro.cli corpus build \
		--out $(CORPUS_SMOKE_DIR)/corpus --seed 0 --size 32 \
		--families daemon --violators 1 --no-exemplars --no-builtins
	PYTHONPATH=src python -m repro.cli peers $(CORPUS_SMOKE_DIR)/corpus \
		--store $(CORPUS_SMOKE_DIR)/profiles --jobs 2 --format json \
		--out $(CORPUS_SMOKE_DIR)/peers.json > /dev/null
	PYTHONPATH=src python -c "\
	import json; \
	manifest = json.load(open('$(CORPUS_SMOKE_DIR)/corpus/manifest.json')); \
	violators = {e['name'] for e in manifest['entries'] if e['violator']}; \
	report = json.load(open('$(CORPUS_SMOKE_DIR)/peers.json')); \
	top = report['outliers'][0]; \
	assert top['program'] in violators, \
	    f'top outlier {top} is not the planted violator {violators}'; \
	findings = [(f['program'], f['capability']) for f in report['findings']]; \
	assert findings, 'no capability finding for the planted hoarder'; \
	assert all(p in violators and c == 'CapSysAdmin' for p, c in findings), findings; \
	print(f'corpus-smoke ok: violator {top[\"program\"]} is top-1 ' \
	      f'(score {top[\"score\"]:.1f}), findings {findings}')"
	PYTHONPATH=src python -m repro.cli peers $(CORPUS_SMOKE_DIR)/corpus \
		--store $(CORPUS_SMOKE_DIR)/profiles \
		> $(CORPUS_SMOKE_DIR)/warm.txt 2> $(CORPUS_SMOKE_DIR)/warm-stats.txt
	grep -q "32 hit(s), 0 miss(es)" $(CORPUS_SMOKE_DIR)/warm-stats.txt \
		|| { echo "corpus-smoke: warm sweep was not fully cached:"; \
		     cat $(CORPUS_SMOKE_DIR)/warm-stats.txt; exit 1; }
	@echo "corpus-smoke ok: warm sweep served 32/32 from the profile store"
	PYTHONPATH=src python -c "\
	import glob, json; \
	path = sorted(glob.glob('$(CORPUS_SMOKE_DIR)/profiles/objects/*/*.json'))[0]; \
	entry = json.load(open(path)); \
	entry['payload']['invulnerable_window'] = 1.0 - entry['payload']['invulnerable_window']; \
	json.dump(entry, open(path, 'w'))"
	PYTHONPATH=src python -m repro.cli peers $(CORPUS_SMOKE_DIR)/corpus \
		--store $(CORPUS_SMOKE_DIR)/profiles --out $(CORPUS_SMOKE_DIR)/tampered.json \
		> $(CORPUS_SMOKE_DIR)/tampered.txt 2> $(CORPUS_SMOKE_DIR)/tampered-stats.txt
	grep -q "31 hit(s), 1 miss(es)" $(CORPUS_SMOKE_DIR)/tampered-stats.txt \
		|| { echo "corpus-smoke: tampered profile was not rejected:"; \
		     cat $(CORPUS_SMOKE_DIR)/tampered-stats.txt; exit 1; }
	cmp $(CORPUS_SMOKE_DIR)/peers.json $(CORPUS_SMOKE_DIR)/tampered.json \
		|| { echo "corpus-smoke: tampered rerun differs from the cold peers.json"; exit 1; }
	@echo "corpus-smoke ok: tampered profile rejected, recomputed, output byte-identical"

# Control-plane smoke test (CI gate): start `privanalyzer serve`, run
# two concurrent cold clients over a corpus slice (no duplicated
# publishes, identical answers), then a second-sweep client that must
# be >= 90% store-served and verdict-identical, and snapshot the
# Prometheus dashboard to serve-metrics.prom (see docs/SERVING.md).
serve-smoke:
	rm -rf $(SERVE_SMOKE_DIR)
	PYTHONPATH=src python scripts/serve_smoke.py --dir $(SERVE_SMOKE_DIR)

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		python $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
