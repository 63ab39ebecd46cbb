//! The paper's contribution: DD-based quantum-circuit simulation with
//! operation-combining strategies.
//!
//! The [`Simulator`] streams a [`Circuit`](ddsim_circuit::Circuit) through
//! the decision-diagram package under one of the paper's Section IV
//! strategies:
//!
//! * [`Strategy::Sequential`] — one matrix-vector multiplication per gate
//!   (Eq. 1, the state-of-the-art baseline).
//! * [`Strategy::KOperations`] — combine `k` gates via matrix-matrix
//!   multiplication before each application (Fig. 8).
//! * [`Strategy::MaxSize`] — combine until the product DD reaches `s_max`
//!   nodes (Fig. 9).
//! * [`Strategy::DdRepeating`] — combine repeated blocks once and re-apply
//!   the cached matrix (Table I).
//!
//! The *DD-construct* strategy (Table II) lives in [`shor_construct`]: it
//! bypasses gate decomposition entirely, building the modular-multiplication
//! oracle directly as a permutation DD over `n + 1` qubits.
//!
//! # Examples
//!
//! ```
//! use ddsim_algorithms::grover::{grover_circuit, GroverInstance};
//! use ddsim_core::{simulate, SimOptions, Strategy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let inst = GroverInstance::new(5, 0b1011);
//! let circuit = grover_circuit(inst);
//! let (sim, stats) = simulate(&circuit, SimOptions::with_strategy(Strategy::DdRepeating { k: 4 }))?;
//! // The marked element dominates the distribution (ancilla is in |−⟩,
//! // contributing a uniform bottom bit).
//! let p = sim.probability_of(0b1011 << 1) + sim.probability_of((0b1011 << 1) | 1);
//! assert!(p > 0.9, "marked element probability {p}");
//! assert!(stats.mat_mat_mults > 0);
//! # Ok(())
//! # }
//! ```

pub mod density;
mod engine;
pub mod equivalence;
mod error;
pub mod grover_construct;
pub mod noise;
pub mod shor_construct;
mod stats;
mod strategy;

pub use ddsim_dd::{
    CacheStats, CancelToken, DdConfig, FaultKind, FxHashMap, ReorderStats, Resource, Snapshot,
    SnapshotError, TableStats, ThreadPool, UniqueTableStats, VarOrder,
};
pub use engine::{
    circuit_fingerprint, simulate, CheckpointConfig, ReorderMode, SimOptions, Simulator,
};
pub use error::SimError;
#[allow(deprecated)]
pub use error::SimulateCircuitError;
pub use grover_construct::{run_grover_dd_construct, GroverOutcome};
pub use shor_construct::{
    factor_with_dd_construct, run_shor_dd_construct, ShorDdConstruct, ShorOutcome,
};
pub use stats::{RunStats, StepTrace};
pub use strategy::{ParseStrategyError, Strategy};
