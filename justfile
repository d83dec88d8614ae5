# Development shortcuts. `just check` is what CI runs.

# Build everything, run the full test suite, lint, and analyze.
check: fmt build test e2e-test lint doc verify analyze

# Formatting drift anywhere in the workspace fails the check.
fmt:
    cargo fmt --all --check

# Release build of the whole workspace.
build:
    cargo build --release

# The full test suite (unit + integration + property tests).
test:
    cargo test -q --workspace

# The end-to-end benchmark's own tests: per-workload input pins and a
# 20-cycle smoke of every workload with pinned wire bytes. `e2e/` is a
# separate package, so `test` above does not reach it.
e2e-test:
    cargo test --offline --manifest-path e2e/Cargo.toml

# Clippy with warnings promoted to errors, over every target (tests,
# benches and examples included).
lint:
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings promoted to errors: a doc link to a deleted or
# private item fails the build.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Protocol-level verification: the bounded state-space sweep over the
# built-in scenarios (CI profile, a few seconds).
verify:
    cargo run --release -p shadow-check -- explore --profile ci

# The overnight sweep: wider reordering, bigger budgets and state caps.
verify-deep:
    cargo run --release -p shadow-check -- explore --profile deep

# Static analysis: transitive panic/alloc/clock/blocking guarantees,
# file-scope bans and variant coverage over the whole workspace (deny by
# default; see DESIGN.md §13). Also exports per-rule counts + wall time
# to BENCH_analysis.json.
analyze:
    cargo run --release -p shadow-check -- analyze --root .
    cargo run --release -p shadow-check -- analyze --root . --json > BENCH_analysis.json

# Regenerate the paper's figures/tables (slow; see EXPERIMENTS.md).
experiments:
    cargo test -q --release -p shadow experiment

# Small-parameter pass over every bench target; each writes its rows to
# BENCH_<name>.json at the workspace root (see DESIGN.md §10).
bench-quick:
    SHADOW_BENCH_QUICK=1 cargo bench

# The full-size benchmark suite (slow; same JSON exports).
bench:
    cargo bench

# Diff pipeline micro rows + regression guard: re-exports BENCH_micro.json
# (quick parameters) and fails when any diff/apply row is more than 2x
# slower than the committed BENCH_baseline_diff.json.
bench-diff:
    SHADOW_BENCH_QUICK=1 cargo bench -p shadow-bench --bench micro
    cargo run --release -p shadow-bench --bin bench_guard -- micro

# Sharded-runtime scaling sweep (sessions x shards over live pipes);
# writes BENCH_contention.json. Quick parameters: pass no env for the
# full 10k-session sweep.
bench-contention:
    SHADOW_BENCH_QUICK=1 cargo bench -p shadow-bench --bench contention

# Durable-store recovery rows + regression guard: re-exports
# BENCH_recovery.json (quick parameters) and fails when any append or
# replay row is more than 3x slower than the committed
# BENCH_baseline_recovery.json.
bench-recovery:
    SHADOW_BENCH_QUICK=1 cargo bench -p shadow-bench --bench recovery
    cargo run --release -p shadow-bench --bin bench_guard -- recovery

# Fault-tolerance suite: the kill-the-link integration tests, then the
# seeded chaos matrix (scheduled resets, a lossy link, a healed
# partition) exporting BENCH_chaos.json, gated by `bench_guard chaos` on
# the recovered-as-delta ratio and recovery latency vs the committed
# BENCH_baseline_chaos.json.
chaos:
    cargo test -q --release -p shadow --test reconnect_resume
    SHADOW_BENCH_QUICK=1 cargo bench -p shadow-bench --bench chaos
    cargo run --release -p shadow-bench --bin bench_guard -- chaos
