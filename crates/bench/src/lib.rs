//! Host-side microbenchmarks of the CommTM simulator, plus Table I.
//!
//! The `benches/` targets time what no sweep isolates: the protocol hot
//! path (`hotpath`), the LIST label handlers and the gather request path
//! (`list_gather`), and whole-machine primitives (`criterion_micro`);
//! `table1_config` prints the simulated system's configuration. Run one
//! with `cargo bench --bench hotpath`.
//!
//! The paper's figures and Table II come from the lab's built-in
//! scenarios: `commtm-lab run fig09 --threads 1,8,32 --scale 10` prints
//! the figure-style report, and `commtm-lab run --all` renders every
//! figure. End-to-end host cost is measured by `hostbench` (see
//! `hostbench/README.md`).
