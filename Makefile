# Convenience targets for the IPS reproduction.

PYTHON ?= python

.PHONY: install test verify-robustness verify-perf verify-e2e verify-obs verify-serve verify-streaming verify-campaign bench examples smoke clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Robustness suite: retry/backoff/quorum/checkpoint + fault injection,
# distributed-vs-serial discovery differential (every test_distributed*
# file), the crash-safety suite of every store's writes (test_io: failed
# write steps, damaged files, stray temp files, SIGKILL'd writers), data
# contracts & repairs, degenerate-input corpus, anytime budgets — plus a
# live deadline-budget smoke through the CLI.
verify-robustness:
	PYTHONPATH=src $(PYTHON) -m pytest -q -m robustness tests/
	PYTHONPATH=src $(PYTHON) -m repro run ItalyPowerDemand --method IPS \
		--max-train 16 --max-test 20 --k 3 --budget-seconds 0.0

# Bit-identity gate of the optimised paths: brute-force oracles of the
# scalar kernels, batched-vs-scalar kernels, byte-budget, spectra-store
# and batched-STOMP differential tests, the SVM coordinate loop, DT
# utility scoring and LSH rank-cache oracles, and the DABF's lazy Table III
# fit (equal to an eager fit, never run by build or prune). Performance is
# measured by `verify-e2e`.
verify-perf:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_kernels_distance.py tests/test_kernels_mass.py \
		tests/test_kernels.py tests/test_stomp_batched.py \
		tests/test_classify_svm.py tests/test_core_utility.py tests/test_lsh_table.py \
		tests/test_filters_dabf.py tests/test_filters_distribution.py

# End-to-end benchmark, the repo's one performance harness: the
# benchmark's smoke tests, then one full run of each workload (end-to-end
# and per-layer metrics for fit, predict, serve and stream; about a
# minute each). The last run is traced: the benchmark wraps the pipeline's
# call sites (generate_candidates, DABF.build/prune,
# score_with_class_fallback, the transform, scaler and SVM, ...) in spans
# and counts a fit whose stages miss a wrapper, or leave more than 2% of
# fit_s unattributed, as a failed operation (a "failed: trace: ..." line
# and "correct": false in the result line), so it shows a change to those
# call sites that the wrappers stop catching. See e2ebench/README.md.
verify-e2e:
	$(PYTHON) -m pytest e2ebench/test_smoke.py -q
	python3 e2ebench/run.py --workload fit_long --seed 1 --seconds 42 --trace 0
	python3 e2ebench/run.py --workload fit_many --seed 1 --seconds 42 --trace 0
	python3 e2ebench/run.py --workload fit_many --seed 1 --seconds 42 --trace 1

# Observability gate: span-tree/metrics/manifest/JSONL + telemetry
# tests (the `obs` marker), including instrumented-vs-bare serving
# bit-identity.
verify-obs:
	PYTHONPATH=src $(PYTHON) -m pytest -q -m obs tests/

# Serving gate: artifact/queue/breaker unit tests plus the chaos suite
# (crash, hang, slow, corrupt payload, corrupt artifact, overload) and
# concurrent clients answered bit-identically to offline predict.
verify-serve:
	PYTHONPATH=src $(PYTHON) -m pytest -q -m serve tests/

# Streaming gate: matcher/transform/early-classifier unit + property
# tests and the streaming-session suite, including early emission at the
# calibrated threshold with every label equal to the batch label.
verify-streaming:
	PYTHONPATH=src $(PYTHON) -m pytest -q -m streaming tests/

# Campaign gate: the kill/resume chaos suite (campaign SIGKILL'd at
# random cell boundaries and mid-cell, resumed under crash/hang/slow
# faults, results frame bit-identical to an uninterrupted run), then a
# live CLI smoke: run a 2x2x2 matrix in two halves and report it.
verify-campaign:
	PYTHONPATH=src $(PYTHON) -m pytest -q -m campaign tests/
	rm -rf .campaign-smoke
	PYTHONPATH=src $(PYTHON) -m repro campaign run --out .campaign-smoke \
		--datasets CBF,ItalyPowerDemand --methods 1NN-ED,BOP \
		--scenarios clean,noise --max-train 12 --max-test 20 \
		--max-length 80 --max-cells 3
	PYTHONPATH=src $(PYTHON) -m repro campaign resume --dir .campaign-smoke
	PYTHONPATH=src $(PYTHON) -m repro campaign status --dir .campaign-smoke
	PYTHONPATH=src $(PYTHON) -m repro campaign report --dir .campaign-smoke
	rm -rf .campaign-smoke

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	@for script in examples/*.py; do \
		echo "=== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

smoke:
	$(PYTHON) -m repro run ItalyPowerDemand --method IPS --max-train 16 --max-test 20 --k 3

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
