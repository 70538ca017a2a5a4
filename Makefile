# Precursor reproduction -- common workflows.

PYTHON ?= python3

.PHONY: install test scorecard reports-smoke shard-smoke chaos-smoke cryptobench-smoke replica-smoke health-smoke traffic-smoke batch-smoke cache-smoke autoscale-smoke examples lint clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

scorecard:
	$(PYTHON) -m repro.cli scorecard

# Report drift gate: every committed bench_reports/*.txt regenerates from
# the registry entry of the same name (exit 1 on a failed bound), and
# any change to its text fails the diff.
reports-smoke:
	for name in $$(git ls-files 'bench_reports/*.txt' | xargs -n1 basename -s .txt); do \
		PYTHONPATH=src $(PYTHON) -m repro.cli "$$name" --out bench_reports || exit 1; \
	done
	git diff --exit-code -- bench_reports/

# Functional sharded cluster: routing, live join + migration, epoch retry;
# then the modelled 1-8 shard scale-out curves regenerate.
shard-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli shard --shards 2 --workload b --ops 2000
	PYTHONPATH=src $(PYTHON) -m repro.cli scaleout --quick

# Deterministic chaos runs under three fixed seeds (docs/FAULTS.md), the
# last one again through the near-cache and backup-read offload, and
# once more with 2 ms leases, so that most cached reads revalidate
# against their entry's basis (docs/CACHING.md) under payload
# corruption and shard deaths.  Each exits non-zero iff an injected
# fault caused an integrity violation instead of being recovered, and
# each JSON report must regenerate its committed bench_reports/chaos-*
# file byte for byte (fault fingerprint, retries, state digest); then
# the modelled retry-cost curves regenerate.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli chaos --seed 7 --ops 150 --json \
		> bench_reports/chaos-seed7.json
	PYTHONPATH=src $(PYTHON) -m repro.cli chaos --seed 23 --ops 150 --json \
		--schedule "drop:0.08,duplicate:0.05,delay:0.05,corrupt_payload:0.02,enclave_crash:0.01" \
		> bench_reports/chaos-seed23-wire.json
	PYTHONPATH=src $(PYTHON) -m repro.cli chaos --seed 42 --ops 100 --shards 3 --replicas 1 --json \
		--schedule "drop:0.05,shard_death:0.03,corrupt_payload:0.01" \
		> bench_reports/chaos-seed42-shards.json
	PYTHONPATH=src $(PYTHON) -m repro.cli chaos --seed 42 --ops 100 --shards 3 --replicas 1 --json \
		--cache --offload --schedule "drop:0.05,shard_death:0.03,corrupt_payload:0.01" \
		> bench_reports/chaos-seed42-cache-offload.json
	PYTHONPATH=src $(PYTHON) -m repro.cli chaos --seed 42 --ops 150 --shards 3 --replicas 1 --json \
		--cache --lease-ms 2 --schedule "drop:0.05,shard_death:0.03,corrupt_payload:0.02" \
		> bench_reports/chaos-seed42-lease-2ms.json
	git diff --exit-code -- 'bench_reports/chaos-*.json'
	PYTHONPATH=src $(PYTHON) -m repro.cli faulttail --quick

# Replicated failover chaos under three fixed seeds: sync groups must
# lose nothing across promotions (exit 1 on any acked loss), then a
# 2-replica scaleout smoke proves migration x replication coexistence
# and the modelled ack-mode cost table must hold its bounds and
# regenerate its committed quick artifact byte for byte
# (docs/REPLICATION.md).
replica-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli replica --seed 7 --ops 150
	PYTHONPATH=src $(PYTHON) -m repro.cli replica --seed 23 --ops 150 --replicas 2 \
		--schedule "shard_death:0.05,replica_lag:0.08,promote_during_migration:0.02"
	PYTHONPATH=src $(PYTHON) -m repro.cli replica --seed 42 --ops 150 --ack-mode semi-sync
	PYTHONPATH=src $(PYTHON) -m repro.cli shard --shards 2 --ops 400 --workload b
	PYTHONPATH=src $(PYTHON) -m repro.cli replicate --quick
	git diff --exit-code -- bench_reports/BENCH_replication_quick.json

# Telemetry pipeline smoke (docs/OBSERVABILITY.md): a clean sharded +
# replicated run must produce an OK windowed SLO report (exit 1 on any
# breach), then the breach scenario must freeze a parseable
# flight-recorder dump and replay it offline; a committed version-1
# dump must still load and render one of its records.
health-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli health --shards 2 --replicas 1 --ops 240
	PYTHONPATH=src $(PYTHON) -m repro.cli flightrec --out bench_reports > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro.cli flightrec --load bench_reports/flightrec.json
	PYTHONPATH=src $(PYTHON) -m repro.cli flightrec --load tests/fixtures/flightrec-v1.json --trace c1-181

# Open-loop traffic smoke (docs/TRAFFIC.md): a short flash-crowd
# scenario on 2 shards must hold a loose SLO with the correction
# invariant intact (corrected p99 >= uncorrected p99; exit 1 if either
# fails), then the quick knee search must pass its omission-gap gates
# and regenerate the committed quick artifact byte for byte.
traffic-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli traffic --scenario flash-crowd \
		--shards 2 --seed 11 --ops 240 \
		--slo "latency:p99<60ms:min=8,errors:budget=2%:burn<5"
	PYTHONPATH=src $(PYTHON) -m repro.cli loadknee --quick
	git diff --exit-code -- bench_reports/BENCH_traffic_quick.json

# Wall-clock crypto benchmark, reduced: cross-engine parity must hold and
# the fast engine must beat 5x reference on the 4 KiB payload/transport
# checkpoints (docs/PERFORMANCE.md).  Exits 1 on either failure.
cryptobench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli cryptobench --quick

# Request pipeline gate (docs/BATCHING.md): the reduced benchmark must
# hold its identity bounds and clear the quick run's relaxed
# 1.05x speedup floor at K=16 (the committed artifact
# BENCH_batching.json holds the full-run numbers against the 1.3x
# acceptance floor).  The equivalence and chaos suites run with the
# rest of tests/ in `make test`.
batch-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli batchbench --quick

# Near-cache gate (docs/CACHING.md): the reduced benchmark must clear
# the knee-shift, primary-shed and state-equivalence gates and
# regenerate its committed quick artifact byte for byte (the committed
# artifact BENCH_nearcache.json holds the full-run numbers).  The
# cache/offload suites run with the rest of tests/ in `make test`.
cache-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli nearcachebench --quick
	git diff --exit-code -- bench_reports/BENCH_nearcache_quick.json

# Elastic autoscaler gate (docs/AUTOSCALING.md): the reduced benchmark
# must clear its gates -- exit 1 on any flapping, a failed SLO-recovery
# phase, a non-deterministic decision log, or a chaos run with the
# controller live going red -- and regenerate its committed quick
# artifact byte for byte (the committed artifact BENCH_autoscale.json
# holds the full-run numbers).  The autoscaler suites run with the rest
# of tests/ in `make test`.
autoscale-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli autoscalebench --quick
	git diff --exit-code -- bench_reports/BENCH_autoscale_quick.json

examples:
	for script in examples/*.py; do echo "== $$script =="; $(PYTHON) $$script || exit 1; done

# Prefer ruff, fall back to pyflakes; with neither installed, fail: a
# syntax-only pass would report a lint that never ran as clean.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		echo "lint: ruff"; $(PYTHON) -m ruff check src tests examples; \
	elif $(PYTHON) -m pyflakes --version >/dev/null 2>&1; then \
		echo "lint: pyflakes"; $(PYTHON) -m pyflakes src/repro tests examples; \
	else \
		echo "lint: FAILED, no linter: ruff is not installed (nor pyflakes)" >&2; \
		exit 1; \
	fi

clean:
	rm -rf .pytest_cache .hypothesis bench_reports src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
