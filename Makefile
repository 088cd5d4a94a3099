.PHONY: install test bench bench-counters examples reproduce trace-smoke ledger-smoke profile-smoke frontend-smoke fuzz-smoke fuzz corpus-smoke serve-smoke clean

TRACE_SMOKE_OUT := /tmp/privanalyzer-trace-smoke.jsonl
LEDGER_SMOKE_DIR := /tmp/privanalyzer-ledger-smoke
PROFILE_SMOKE_DIR := /tmp/privanalyzer-profile-smoke
FRONTEND_SMOKE_DIR := /tmp/privanalyzer-frontend-smoke
CORPUS_SMOKE_DIR := /tmp/privanalyzer-corpus-smoke
SERVE_SMOKE_DIR := /tmp/privanalyzer-serve-smoke
BENCH_COUNTERS_DIR := /tmp/privanalyzer-bench-counters
BENCH_COUNTERS_GOLDEN := tests/golden/bench_counters.json
FUZZ_NEGATIVE_DIR := /tmp/privanalyzer-fuzz-negative
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

# Frontend error smoke test (CI gate, ~1s): `analyze` on four malformed
# .privc files (a `0x` literal with no digits, a literal `12²` whose `²`
# is a digit to str.isdigit but not to int(), an unbalanced `}`, and
# parentheses nested one level past the parser's MAX_NESTING) must each
# exit 1 with one `privanalyzer: <path>: <message>` line on stderr and no
# Python traceback.
frontend-smoke:
	rm -rf $(FRONTEND_SMOKE_DIR) && mkdir -p $(FRONTEND_SMOKE_DIR)
	printf 'int main() { return 0x; }\n' > $(FRONTEND_SMOKE_DIR)/hex.privc
	printf 'int main() { return 12\302\262; }\n' > $(FRONTEND_SMOKE_DIR)/digit.privc
	printf 'int main() { return 0; }\n}\n' > $(FRONTEND_SMOKE_DIR)/brace.privc
	PYTHONPATH=src python -c "\
	from repro.frontend.parser import MAX_NESTING as n; \
	print('int main() { return ' + '(' * n + '1' + ')' * n + '; }')" \
		> $(FRONTEND_SMOKE_DIR)/deep.privc
	for name in hex digit brace deep; do \
		err=$(FRONTEND_SMOKE_DIR)/$$name.err; \
		PYTHONPATH=src python -m repro.cli analyze $(FRONTEND_SMOKE_DIR)/$$name.privc \
			--caps CapSetuid > /dev/null 2> $$err; status=$$?; \
		[ $$status -eq 1 ] || { echo "frontend-smoke: $$name.privc exited $$status, not 1"; cat $$err; exit 1; }; \
		grep -q "^privanalyzer: $(FRONTEND_SMOKE_DIR)/$$name.privc: " $$err \
			|| { echo "frontend-smoke: no privanalyzer: line for $$name.privc"; cat $$err; exit 1; }; \
		! grep -q Traceback $$err \
			|| { echo "frontend-smoke: traceback for $$name.privc"; cat $$err; exit 1; }; \
		echo "frontend-smoke ok: $$(cat $$err)"; \
	done

# Conformance fuzz smoke (CI gate, ~40s): a fixed-seed campaign over the
# six default differential oracle families (cache, vm — the generated VM
# core vs the reference evaluator — ledger, profile, store and prove), a
# second-seed 500-run campaign of the `vm` family alone (~5s: the code
# the generator emits for every instruction shape meets many random
# programs), a negative check that the `vm` family catches a patched
# operation table in the generated code (the campaign must exit 1), a
# third-seed 500-run campaign of the `prove` family alone (~2s: every
# abstract proof re-searched by the raw BFS), plus the marker-gated
# pytest suite.
# See docs/TESTING.md.
fuzz-smoke:
	PYTHONPATH=src python -m repro.cli fuzz --seed 0 --runs 25
	PYTHONPATH=src python -m repro.cli fuzz --seed 1 --runs 500 --oracle vm
	PYTHONPATH=src python -m repro.cli fuzz --seed 0 --runs 4 --oracle vm \
		--inject compiled-mul-truncate --artifacts $(FUZZ_NEGATIVE_DIR) > /dev/null; \
		status=$$?; [ $$status -eq 1 ] \
		|| { echo "fuzz-smoke: the vm family missed compiled-mul-truncate (exit $$status)"; exit 1; }
	@echo "fuzz-smoke ok: the vm family caught compiled-mul-truncate"
	PYTHONPATH=src python -m repro.cli fuzz --seed 1 --runs 4 --oracle vm \
		--inject compiled-srem-floor --artifacts $(FUZZ_NEGATIVE_DIR) > /dev/null; \
		status=$$?; [ $$status -eq 1 ] \
		|| { echo "fuzz-smoke: the vm family missed compiled-srem-floor (exit $$status)"; exit 1; }
	@echo "fuzz-smoke ok: the vm family caught compiled-srem-floor"
	PYTHONPATH=src python -m repro.cli fuzz --seed 2 --runs 500 --oracle prove
	PYTHONPATH=src python -m pytest tests/ -m fuzz -q

# Nightly-scale campaign (not a CI gate): every oracle family including
# the metamorphic properties, at a real run count.  Override with
# FUZZ_SEED / FUZZ_RUNS, e.g. `make fuzz FUZZ_SEED=$$(date +%s)`.
fuzz:
	PYTHONPATH=src python -m repro.cli fuzz \
		--seed $(FUZZ_SEED) --runs $(FUZZ_RUNS) --oracle all

# Corpus + peers smoke test (CI gate): a seeded 32-program daemon
# corpus with one planted CAP_SYS_ADMIN hoarder.  After the --jobs 2
# sweep (two processes publishing to one profile store), every line of
# the store's lineage.jsonl must parse and its keys must be exactly the
# objects on disk.  The peers report must
# rank the violator top-1 with the report's only capability finding,
# and a serial sweep (no store) must write a byte-identical report to
# the --jobs 2 process-pool one.  A warm rerun over the same profile
# store must serve every program from cache.  Flipping one value inside one stored profile must then be
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
	import glob, json, os; \
	records = [json.loads(line) for line in open('$(CORPUS_SMOKE_DIR)/profiles/lineage.jsonl')]; \
	keys = {record['key'] for record in records}; \
	objects = {os.path.basename(path)[:-len('.json')] \
	           for path in glob.glob('$(CORPUS_SMOKE_DIR)/profiles/objects/*/*.json')}; \
	assert keys == objects, (sorted(keys ^ objects), len(keys), len(objects)); \
	print(f'corpus-smoke ok: {len(records)} lineage records parse, keys match {len(objects)} objects')"
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
		--format json --out $(CORPUS_SMOKE_DIR)/peers-serial.json > /dev/null
	cmp $(CORPUS_SMOKE_DIR)/peers.json $(CORPUS_SMOKE_DIR)/peers-serial.json \
		|| { echo "corpus-smoke: serial and --jobs 2 peers reports differ"; exit 1; }
	@echo "corpus-smoke ok: serial and --jobs 2 peers reports are byte-identical"
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

# Run every example script against the working tree (CI gate, ~4s).
examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		PYTHONPATH=src python $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
