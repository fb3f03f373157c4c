// Package sdnbugs is a full reproduction of "A Comprehensive Study of
// Bugs in Software Defined Networks" (Bhardwaj, Zhou, Benson — DSN
// 2021) as a Go library.
//
// The paper mined ~800 critical bugs from the FAUCET, ONOS and CORD
// issue trackers, manually labeled 150 of them along a five-dimension
// taxonomy, scaled the labels with an NLP pipeline, and analyzed the
// result to answer five research questions about SDN controller bugs.
// This module rebuilds that study end to end on synthetic-but-
// calibrated substrates:
//
//   - internal/taxonomy        — Table I's dimensions and labels
//   - internal/corpus,textgen  — the calibrated synthetic bug corpus
//   - internal/trackerd        — JIRA/GitHub-like tracker simulators
//     and the mining client
//   - internal/nlp/*, ml/*     — TF-IDF, NMF, Word2Vec, SVM, trees,
//     PCA, AdaBoost from scratch
//   - internal/study           — the RQ1–RQ5 analysis engine
//   - internal/openflow,sdn    — an OpenFlow-subset controller +
//     dataplane simulator
//   - internal/faultlab        — the taxonomy-driven fault injector
//   - internal/recovery        — Table VII's framework models and the
//     empirical coverage evaluator
//   - internal/codemodel,smell — the Designite-style analysis of §VI-A
//   - internal/vcs,burn        — the burn analysis of §VI-B
//   - internal/depscan         — the dependency-vulnerability scan
//   - internal/engine          — the registry-driven concurrent
//     experiment engine (worker pool, per-run timing, partial-failure
//     outcomes, per-experiment timeouts)
//   - internal/durable         — the crash-consistent corpus store
//     (checksummed WAL + snapshots, torn-tail recovery, atomic file
//     publication)
//   - internal/diskfault       — the fault-injecting filesystem
//     (short/torn writes, failed syncs, scheduled crash points)
//   - internal/mine            — the resumable miner checkpointing
//     both trackers' cursors into a durable store
//   - internal/perfuzz         — the feedback-guided stateful
//     performance fuzzer (schedule genomes, delta-debugged minimal
//     reproducers, failure-model learner)
//   - internal/repair          — the automatic repair loop (patch
//     grammar over flow-rule programs, learner-ranked candidates,
//     reproducer + campaign validation, shed lifting)
//
// The Suite type in this package registers every experiment (E01–E26,
// one per table/figure — see DESIGN.md) and ablation (A01–A07) with
// the engine and reports paper-vs-measured checks. Suite.Run selects
// experiments by ID and executes them on a configurable worker pool —
// a Suite is safe for concurrent use because its shared artifacts are
// built behind sync.Once accessors — while Suite.Experiments and
// Suite.Ablations remain thin sequential wrappers. bench_test.go
// regenerates each artifact as a benchmark and measures the
// sequential-vs-parallel suite speedup.
package sdnbugs
