//! Versioned binary checkpoints of a simulation's DD state.
//!
//! A [`Snapshot`] captures everything needed to resume a run and reproduce
//! it *bit for bit*:
//!
//! * the **entire complex table** in insertion order — not just the weights
//!   reachable from the state, because tolerance bucketing makes interning
//!   history-dependent: the first value interned in a bucket becomes the
//!   representative for every later near-equal value, so replaying with a
//!   pruned table would intern future weights to different representatives
//!   and drift the amplitudes;
//! * the state vector DD as a topologically ordered node list (children
//!   before parents). Stored pivot child weights are exactly ONE thanks to
//!   canonical normalization, so rebuilding through
//!   [`DdManager::make_vec_node`] reproduces the identical diagram with no
//!   re-normalization drift;
//! * the engine-level cursor: instruction pointer into the flattened op
//!   stream, classical bits, and the RNG's raw xoshiro256** state, so
//!   post-resume measurements consume the same random stream;
//! * a hash of the circuit source, so a snapshot cannot silently be resumed
//!   against a different circuit.
//!
//! * the **variable order** (version 2), so a snapshot taken after a
//!   dynamic reorder restores both the diagram *and* its qubit↔level
//!   interpretation bitwise.
//!
//! # On-disk format (version 2)
//!
//! Little-endian throughout:
//!
//! ```text
//! magic      8 bytes  "DDSNAP01"
//! version    u32      2
//! qubits     u32
//! next_op    u64      index into the flattened op stream
//! circ_hash  u64      FNV-1a of the circuit's canonical text
//! rng        4×u64    xoshiro256** state words
//! tolerance  f64      complex-table tolerance (bit pattern)
//! #cbits     u32      then one byte per classical bit (0/1)
//! #weights   u32      then (re: f64, im: f64) per table entry, in order
//! #nodes     u32      then per node: level u32, 2 × (child u32, weight u32)
//!                     child == 0xFFFF_FFFF means the terminal node
//! root       child u32, weight u32
//! #order     u32      then one u32 per level: the qubit at level ℓ is
//!                     entry ℓ - 1; count 0 means the identity order
//! checksum   u64      FNV-1a over every preceding byte
//! ```
//!
//! Version 1 files are identical minus the `#order` section; the reader
//! accepts them and restores the identity order. The order section sits at
//! the *end* of the body precisely so every version-1 field keeps its
//! offset.

use std::io::{Read, Write};
use std::path::Path;

use ddsim_complex::{Complex, ComplexId, ComplexTable};

use crate::edge::{NodeId, VecEdge};
use crate::manager::{DdConfig, DdManager};

/// File magic: snapshot format, version baked into the tag for `file(1)`.
const MAGIC: &[u8; 8] = b"DDSNAP01";
/// Current format version. Version 1 (no variable-order section) is still
/// accepted on read.
const VERSION: u32 = 2;
/// Child reference denoting the terminal node.
const TERMINAL_REF: u32 = u32::MAX;

/// A serialized edge: index into the snapshot's node list (or
/// [`TERMINAL_REF`]) plus a complex-table weight id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapEdge {
    /// Index into [`Snapshot::nodes`], or [`u32::MAX`] for the terminal.
    pub node: u32,
    /// Index into [`Snapshot::weights`].
    pub weight: u32,
}

/// A serialized vector-DD node. Nodes appear children-before-parents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapNode {
    /// The node's level (1 = bottommost qubit).
    pub level: u32,
    /// The two successor edges (upper / lower half).
    pub children: [SnapEdge; 2],
}

/// A resumable checkpoint of a simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Qubit count of the captured state.
    pub qubits: u32,
    /// Index of the next (not yet executed) op in the flattened stream.
    pub next_op: u64,
    /// FNV-1a hash of the circuit's canonical text; checked on resume.
    pub circuit_hash: u64,
    /// Raw xoshiro256** state of the engine RNG.
    pub rng_state: [u64; 4],
    /// Classical register contents.
    pub classical_bits: Vec<bool>,
    /// Complex-table tolerance the run was started with.
    pub tolerance: f64,
    /// The full complex table in insertion order (bit-exact f64 pairs).
    pub weights: Vec<Complex>,
    /// The state DD, topologically ordered (children before parents).
    pub nodes: Vec<SnapNode>,
    /// The root edge of the state DD.
    pub root: SnapEdge,
    /// Level→qubit map of the captured variable order (entry `ℓ - 1` is
    /// the qubit at level `ℓ`); empty means the identity order. Version-1
    /// files always restore as empty.
    pub order: Vec<u32>,
}

/// Failure to read, validate, or restore a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// Structural validation failed (checksum, dangling reference, bad
    /// complex table, …). The message names the first violation.
    Corrupt(String),
    /// The in-memory state exceeds a format capacity (a section
    /// count no longer fits in its `u32` field). Writing anyway would
    /// silently truncate the count and produce a checksummed-but-corrupt
    /// file, so capture/write refuse instead.
    TooLarge {
        /// Which section overflowed ("nodes", "weights", …).
        what: &'static str,
        /// The count that does not fit.
        count: usize,
    },
    /// The snapshot's circuit hash does not match the circuit it is being
    /// resumed against.
    CircuitMismatch {
        /// Hash stored in the snapshot.
        expected: u64,
        /// Hash of the circuit offered for resumption.
        actual: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => f.write_str("not a DD snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (supported: 1..={VERSION})"
                )
            }
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::TooLarge { what, count } => write!(
                f,
                "snapshot too large: {count} {what} exceed the format's u32 section limit"
            ),
            SnapshotError::CircuitMismatch { expected, actual } => write!(
                f,
                "snapshot was taken from a different circuit \
                 (hash {expected:#018x}, offered {actual:#018x})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Checked `usize → u32` for the format's section counts; refuses with
/// [`SnapshotError::TooLarge`] instead of silently truncating.
fn len_u32(count: usize, what: &'static str) -> Result<u32, SnapshotError> {
    u32::try_from(count).map_err(|_| SnapshotError::TooLarge { what, count })
}

/// Fsyncs the directory containing `path` so a rename into it is durable.
///
/// On non-Unix platforms this is a no-op: directory handles cannot be
/// opened for syncing portably, and the rename itself is still atomic.
/// Errors opening/syncing the directory are surfaced — a checkpoint that
/// claims durability must not silently skip the directory entry.
pub fn sync_parent_dir(path: &Path) -> Result<(), SnapshotError> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

/// FNV-1a over a byte slice; also used for the circuit-text hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl Snapshot {
    /// Captures the manager's state DD rooted at `root` plus the
    /// engine-level cursor fields.
    ///
    /// The node list is produced by an iterative post-order walk so deep
    /// (wide-register) diagrams cannot overflow the thread stack.
    ///
    /// Fails with [`SnapshotError::TooLarge`] if any section count no
    /// longer fits the format's `u32` fields; truncating instead
    /// would produce a checksummed-but-corrupt file.
    pub fn capture(
        dd: &DdManager,
        root: VecEdge,
        qubits: u32,
        next_op: u64,
        circuit_hash: u64,
        rng_state: [u64; 4],
        classical_bits: Vec<bool>,
    ) -> Result<Snapshot, SnapshotError> {
        let mut order: Vec<NodeId> = Vec::new();
        let mut index_of: std::collections::HashMap<NodeId, u32> = std::collections::HashMap::new();
        if !root.node.is_terminal() && !root.is_zero() {
            // Iterative DFS with an explicit "children emitted?" marker.
            let mut stack: Vec<(NodeId, bool)> = vec![(root.node, false)];
            while let Some((id, expanded)) = stack.pop() {
                if index_of.contains_key(&id) {
                    continue;
                }
                if expanded {
                    // Node indices must stay below TERMINAL_REF, which is
                    // reserved for the terminal.
                    if order.len() >= TERMINAL_REF as usize {
                        return Err(SnapshotError::TooLarge {
                            what: "nodes",
                            count: order.len() + 1,
                        });
                    }
                    index_of.insert(id, order.len() as u32);
                    order.push(id);
                } else {
                    stack.push((id, true));
                    for child in dd.vec_node(id).edges {
                        if !child.node.is_terminal() && !index_of.contains_key(&child.node) {
                            stack.push((child.node, false));
                        }
                    }
                }
            }
        }
        // Every interned weight id is below the table length, so checking
        // the length once covers every `weight.index() as u32` below.
        len_u32(dd.complex.values().len(), "weights")?;
        len_u32(classical_bits.len(), "classical bits")?;
        let encode = |e: VecEdge| SnapEdge {
            node: if e.node.is_terminal() {
                TERMINAL_REF
            } else {
                index_of[&e.node]
            },
            weight: e.weight.index() as u32,
        };
        let nodes = order
            .iter()
            .map(|&id| {
                let n = dd.vec_node(id);
                SnapNode {
                    level: n.level,
                    children: [encode(n.edges[0]), encode(n.edges[1])],
                }
            })
            .collect();
        Ok(Snapshot {
            qubits,
            next_op,
            circuit_hash,
            rng_state,
            classical_bits,
            tolerance: dd.complex.tolerance(),
            weights: dd.complex.values(),
            nodes,
            root: encode(root),
            order: if dd.var_order().is_identity() {
                Vec::new()
            } else {
                dd.var_order().level_map(qubits)
            },
        })
    }

    /// Rebuilds a fresh manager holding the captured state.
    ///
    /// `config` supplies everything *except* the tolerance, which is taken
    /// from the snapshot (a different tolerance would re-bucket the table
    /// and break bit-exactness). Returns the manager and the root edge,
    /// ref-pinned against garbage collection.
    pub fn restore(&self, mut config: DdConfig) -> Result<(DdManager, VecEdge), SnapshotError> {
        self.validate()?;
        config.tolerance = self.tolerance;
        let mut dd = DdManager::with_config(config);
        if !self.order.is_empty() {
            // Validated as a permutation of 0..qubits above; node levels are
            // order-independent, so the install order does not matter.
            dd.set_var_order(crate::VarOrder::from_level_map(self.order.clone()));
        }
        dd.complex = ComplexTable::from_values(self.tolerance, &self.weights)
            .map_err(SnapshotError::Corrupt)?;
        let weight_of = |w: u32| ComplexId::from_index(w as usize);
        // Captured nodes are usually a fixpoint of make_vec_node's
        // normalization (pivot child weight exactly ONE), so rebuilding
        // returns weight-ONE edges and the restore is bitwise. The
        // exception: a quotient lane whose interned norm sits an ulp
        // above 1 can usurp the recomputed pivot, making re-normalization
        // return a non-ONE edge weight — which must be folded into the
        // referencing edge, not dropped, or the restored state is wrong.
        let mut built: Vec<VecEdge> = Vec::with_capacity(self.nodes.len());
        fn decode(
            dd: &mut DdManager,
            built: &[VecEdge],
            e: SnapEdge,
            weight_of: impl Fn(u32) -> ComplexId,
        ) -> VecEdge {
            if e.node == TERMINAL_REF {
                VecEdge {
                    node: NodeId::TERMINAL,
                    weight: weight_of(e.weight),
                }
            } else {
                let base = built[e.node as usize];
                let stored = weight_of(e.weight);
                VecEdge {
                    node: base.node,
                    weight: if base.weight.is_one() {
                        stored
                    } else {
                        dd.complex.mul(stored, base.weight)
                    },
                }
            }
        }
        for node in &self.nodes {
            let children = [
                decode(&mut dd, &built, node.children[0], weight_of),
                decode(&mut dd, &built, node.children[1], weight_of),
            ];
            let rebuilt = dd.make_vec_node(node.level, children);
            built.push(rebuilt);
        }
        let root = decode(&mut dd, &built, self.root, weight_of);
        dd.inc_ref_vec(root);
        Ok((dd, root))
    }

    /// Structural validation: reference ranges, topological order, weight
    /// table sanity. Called by [`restore`](Self::restore) and
    /// [`read_from`](Self::read_from).
    fn validate(&self) -> Result<(), SnapshotError> {
        let corrupt = |msg: String| Err(SnapshotError::Corrupt(msg));
        if self.weights.len() < 2 {
            return corrupt("complex table must hold at least zero and one".into());
        }
        let check_edge = |e: SnapEdge, parent: usize| -> Result<(), SnapshotError> {
            if e.node != TERMINAL_REF && e.node as usize >= parent {
                return Err(SnapshotError::Corrupt(format!(
                    "edge to node {} breaks topological order at node {}",
                    e.node, parent
                )));
            }
            if e.weight as usize >= self.weights.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "weight id {} out of range ({} weights)",
                    e.weight,
                    self.weights.len()
                )));
            }
            Ok(())
        };
        for (i, node) in self.nodes.iter().enumerate() {
            if node.level == 0 || node.level > self.qubits {
                return corrupt(format!(
                    "node {} has level {} of {}",
                    i, node.level, self.qubits
                ));
            }
            check_edge(node.children[0], i)?;
            check_edge(node.children[1], i)?;
        }
        check_edge(self.root, self.nodes.len())?;
        if self.classical_bits.len() > u32::MAX as usize {
            return corrupt("classical register too large".into());
        }
        if self.rng_state == [0; 4] {
            return corrupt("all-zero RNG state".into());
        }
        if !self.order.is_empty() {
            if self.order.len() != self.qubits as usize {
                return corrupt(format!(
                    "variable order has {} entries for {} qubits",
                    self.order.len(),
                    self.qubits
                ));
            }
            let mut seen = vec![false; self.order.len()];
            for &q in &self.order {
                if q as usize >= seen.len() || seen[q as usize] {
                    return corrupt(format!("variable order is not a permutation (qubit {q})"));
                }
                seen[q as usize] = true;
            }
        }
        Ok(())
    }

    /// Serializes to the version-2 binary format.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), SnapshotError> {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&self.qubits.to_le_bytes());
        buf.extend_from_slice(&self.next_op.to_le_bytes());
        buf.extend_from_slice(&self.circuit_hash.to_le_bytes());
        for word in self.rng_state {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf.extend_from_slice(&self.tolerance.to_bits().to_le_bytes());
        buf.extend_from_slice(&len_u32(self.classical_bits.len(), "classical bits")?.to_le_bytes());
        buf.extend(self.classical_bits.iter().map(|&b| b as u8));
        buf.extend_from_slice(&len_u32(self.weights.len(), "weights")?.to_le_bytes());
        for c in &self.weights {
            buf.extend_from_slice(&c.re.to_bits().to_le_bytes());
            buf.extend_from_slice(&c.im.to_bits().to_le_bytes());
        }
        buf.extend_from_slice(&len_u32(self.nodes.len(), "nodes")?.to_le_bytes());
        for node in &self.nodes {
            buf.extend_from_slice(&node.level.to_le_bytes());
            for child in node.children {
                buf.extend_from_slice(&child.node.to_le_bytes());
                buf.extend_from_slice(&child.weight.to_le_bytes());
            }
        }
        buf.extend_from_slice(&self.root.node.to_le_bytes());
        buf.extend_from_slice(&self.root.weight.to_le_bytes());
        buf.extend_from_slice(&len_u32(self.order.len(), "order entries")?.to_le_bytes());
        for &q in &self.order {
            buf.extend_from_slice(&q.to_le_bytes());
        }
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        w.write_all(&buf)?;
        Ok(())
    }

    /// Deserializes and validates a snapshot (format versions 1 and 2;
    /// version-1 files restore the identity variable order).
    pub fn read_from(r: &mut impl Read) -> Result<Snapshot, SnapshotError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        if buf.len() < MAGIC.len() + 8 || &buf[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let (body, tail) = buf.split_at(buf.len() - 8);
        // `tail` is exactly 8 bytes by construction; the conversion cannot
        // fail (same for the `take(n)` slices in `Cursor` below).
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a(body) != stored {
            return Err(SnapshotError::Corrupt("checksum mismatch".into()));
        }
        let mut cur = Cursor {
            buf: body,
            pos: MAGIC.len(),
        };
        let version = cur.u32()?;
        if version == 0 || version > VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let qubits = cur.u32()?;
        let next_op = cur.u64()?;
        let circuit_hash = cur.u64()?;
        let rng_state = [cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?];
        let tolerance = f64::from_bits(cur.u64()?);
        // Each section count is bounds-checked against the bytes actually
        // left in the body BEFORE the allocation it sizes: a forged count
        // (with a recomputed checksum) must not drive `with_capacity` into
        // a multi-gigabyte allocation.
        let n_cbits = cur.u32()? as usize;
        cur.expect_elems(n_cbits, 1, "classical-bit")?;
        let mut classical_bits = Vec::with_capacity(n_cbits);
        for _ in 0..n_cbits {
            classical_bits.push(cur.u8()? != 0);
        }
        let n_weights = cur.u32()? as usize;
        cur.expect_elems(n_weights, 16, "weight")?;
        let mut weights = Vec::with_capacity(n_weights);
        for _ in 0..n_weights {
            let re = f64::from_bits(cur.u64()?);
            let im = f64::from_bits(cur.u64()?);
            weights.push(Complex::new(re, im));
        }
        let n_nodes = cur.u32()? as usize;
        cur.expect_elems(n_nodes, 20, "node")?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let level = cur.u32()?;
            let mut children = [SnapEdge {
                node: TERMINAL_REF,
                weight: 0,
            }; 2];
            for child in &mut children {
                child.node = cur.u32()?;
                child.weight = cur.u32()?;
            }
            nodes.push(SnapNode { level, children });
        }
        let root = SnapEdge {
            node: cur.u32()?,
            weight: cur.u32()?,
        };
        let mut order = Vec::new();
        if version >= 2 {
            let n_order = cur.u32()? as usize;
            cur.expect_elems(n_order, 4, "order entry")?;
            order.reserve(n_order);
            for _ in 0..n_order {
                order.push(cur.u32()?);
            }
        }
        if cur.pos != body.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes",
                body.len() - cur.pos
            )));
        }
        let snapshot = Snapshot {
            qubits,
            next_op,
            circuit_hash,
            rng_state,
            classical_bits,
            tolerance,
            weights,
            nodes,
            root,
            order,
        };
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Writes the snapshot to `path` atomically and *durably*: the bytes
    /// are written to a temp file, the temp file is fsynced, the rename
    /// replaces `path`, and on Unix the parent directory is fsynced too —
    /// so after `save` returns, a `kill -9` (or power loss ordering the
    /// directory entry before the data) cannot leave a truncated or
    /// unlinked snapshot behind. A failed write removes the temp file.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        let tmp = path.with_extension("tmp");
        let write = (|| -> Result<(), SnapshotError> {
            let mut file = std::fs::File::create(&tmp)?;
            self.write_to(&mut file)?;
            file.sync_all()?;
            Ok(())
        })();
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;
        Ok(())
    }

    /// Reads and validates a snapshot from `path`.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        let mut file = std::fs::File::open(path)?;
        Snapshot::read_from(&mut file)
    }
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        if self.pos + n > self.buf.len() {
            return Err(SnapshotError::Corrupt("truncated snapshot body".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Rejects a section count whose `count × elem_size` exceeds the bytes
    /// remaining in the body, so callers can size allocations from it.
    fn expect_elems(
        &self,
        count: usize,
        elem_size: usize,
        what: &str,
    ) -> Result<(), SnapshotError> {
        let remaining = self.buf.len() - self.pos;
        let fits = count
            .checked_mul(elem_size)
            .is_some_and(|need| need <= remaining);
        if !fits {
            return Err(SnapshotError::Corrupt(format!(
                "{what} count {count} exceeds the {remaining} bytes left in the body"
            )));
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entangled_state(dd: &mut DdManager, n: u32) -> VecEdge {
        let h = Complex::SQRT2_INV;
        let h_gate = [[h, h], [h, -h]];
        let mut state = dd.vec_zero_state(n);
        state = dd.apply_single_qubit(0, h_gate, state).unwrap();
        for q in 1..n {
            state = dd
                .apply_controlled(
                    &[crate::Control::pos(q - 1)],
                    q,
                    [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]],
                    state,
                )
                .unwrap();
        }
        // A phase layer to get non-trivial weights into the table.
        for q in 0..n {
            let phase = Complex::from_polar(1.0, 0.37 * (q as f64 + 1.0));
            state = dd
                .apply_single_qubit(
                    q,
                    [[Complex::ONE, Complex::ZERO], [Complex::ZERO, phase]],
                    state,
                )
                .unwrap();
        }
        state
    }

    fn capture_of(dd: &DdManager, root: VecEdge, n: u32) -> Snapshot {
        Snapshot::capture(dd, root, n, 7, 0xfeed, [1, 2, 3, 4], vec![true, false]).unwrap()
    }

    #[test]
    fn round_trip_preserves_amplitudes_bit_for_bit() {
        let mut dd = DdManager::new();
        let n = 6;
        let state = entangled_state(&mut dd, n);
        let before = dd.vec_to_amplitudes(state);

        let snap = capture_of(&dd, state, n);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let read = Snapshot::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(read, snap);

        let (restored, root) = read.restore(DdConfig::default()).unwrap();
        let after = restored.vec_to_amplitudes(root);
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "real part drifted");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "imaginary part drifted");
        }
        assert_eq!(read.next_op, 7);
        assert_eq!(read.rng_state, [1, 2, 3, 4]);
        assert_eq!(read.classical_bits, vec![true, false]);
    }

    #[test]
    fn restored_manager_interns_to_the_same_representatives() {
        // The decisive property for bit-exact resume: interning a value
        // near an existing bucket representative must resolve to the SAME
        // id in the restored table as in the original.
        let mut dd = DdManager::new();
        let n = 4;
        let state = entangled_state(&mut dd, n);
        let snap = capture_of(&dd, state, n);
        let (mut restored, _) = snap.restore(DdConfig::default()).unwrap();
        let probe = Complex::from_polar(1.0, 0.37); // re-used phase value
        let a = dd.intern(probe);
        let b = restored.intern(probe);
        assert_eq!(a, b, "bucket representatives must survive the round trip");
        assert_eq!(dd.complex.len(), restored.complex.len());
    }

    #[test]
    fn zero_and_terminal_roots_round_trip() {
        let dd = DdManager::new();
        let snap = Snapshot::capture(&dd, VecEdge::ZERO, 3, 0, 0, [9, 9, 9, 9], vec![]).unwrap();
        assert!(snap.nodes.is_empty());
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let read = Snapshot::read_from(&mut bytes.as_slice()).unwrap();
        let (restored, r) = read.restore(DdConfig::default()).unwrap();
        assert!(r.is_zero());
        drop(restored);
    }

    #[test]
    fn corrupt_bytes_are_rejected_with_typed_errors() {
        let mut dd = DdManager::new();
        let state = entangled_state(&mut dd, 3);
        let snap = capture_of(&dd, state, 3);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Snapshot::read_from(&mut bad.as_slice()),
            Err(SnapshotError::BadMagic)
        ));

        // Bit flip in the body trips the checksum.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(matches!(
            Snapshot::read_from(&mut bad.as_slice()),
            Err(SnapshotError::Corrupt(_))
        ));

        // Truncation trips the checksum or the body reader.
        let bad = &bytes[..bytes.len() - 9];
        assert!(Snapshot::read_from(&mut &bad[..]).is_err());

        // Future version is refused, not misparsed.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        let body_len = bad.len() - 8;
        let sum = fnv1a(&bad[..body_len]);
        let tail = body_len;
        bad[tail..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Snapshot::read_from(&mut bad.as_slice()),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    /// Recomputes the trailing FNV-1a checksum after a deliberate edit, so
    /// a test reaches the section parser instead of the checksum gate.
    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn forged_section_counts_are_rejected_before_allocation() {
        // A forged count with a valid checksum must be refused by the
        // count-vs-remaining-bytes guard, not fed to `Vec::with_capacity`
        // (a count of ~4 billion nodes would ask for an 80 GB allocation).
        let mut dd = DdManager::new();
        let state = entangled_state(&mut dd, 3);
        let snap = capture_of(&dd, state, 3);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();

        // Fixed header: magic 8 + version 4 + qubits 4 + next_op 8 +
        // circ_hash 8 + rng 32 + tolerance 8 = 72 bytes.
        let cbits_at = 72;
        let weights_at = cbits_at + 4 + snap.classical_bits.len();
        let nodes_at = weights_at + 4 + 16 * snap.weights.len();
        let order_at = nodes_at + 4 + 20 * snap.nodes.len() + 8;
        for off in [cbits_at, weights_at, nodes_at, order_at] {
            let mut bad = bytes.clone();
            bad[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            reseal(&mut bad);
            match Snapshot::read_from(&mut bad.as_slice()) {
                Err(SnapshotError::Corrupt(msg)) => {
                    assert!(
                        msg.contains("exceeds"),
                        "count at offset {off} should trip the size guard, got: {msg}"
                    );
                }
                other => panic!("forged count at offset {off} accepted: {other:?}"),
            }
        }
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn oversized_section_counts_refuse_to_serialize() {
        // Writing a count that does not fit u32 must fail typed instead of
        // silently truncating into a checksummed-but-corrupt file.
        match len_u32(u32::MAX as usize + 1, "nodes") {
            Err(SnapshotError::TooLarge {
                what: "nodes",
                count,
            }) => {
                assert_eq!(count, u32::MAX as usize + 1);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(len_u32(17, "weights").unwrap(), 17);
    }

    #[test]
    fn validate_rejects_dangling_and_unordered_references() {
        let mut dd = DdManager::new();
        let state = entangled_state(&mut dd, 3);
        let mut snap = capture_of(&dd, state, 3);
        // Forward reference breaks topological order.
        snap.nodes[0].children[0].node = snap.nodes.len() as u32 - 1;
        assert!(matches!(
            snap.restore(DdConfig::default()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn reordered_state_round_trips_with_its_order() {
        let mut dd = DdManager::new();
        let n = 5;
        let mut state = entangled_state(&mut dd, n);
        dd.inc_ref_vec(state);
        for l in [1, 3, 2] {
            let next = dd.swap_levels(state, l);
            dd.inc_ref_vec(next);
            dd.dec_ref_vec(state);
            state = next;
        }
        assert!(!dd.var_order().is_identity());
        let before = dd.vec_to_amplitudes(state);

        let snap = capture_of(&dd, state, n);
        assert_eq!(snap.order, dd.var_order().level_map(n));
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let read = Snapshot::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(read, snap);

        let (restored, root) = read.restore(DdConfig::default()).unwrap();
        assert_eq!(restored.var_order(), dd.var_order());
        let after = restored.vec_to_amplitudes(root);
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "real part drifted");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "imaginary part drifted");
        }
    }

    #[test]
    fn version_1_files_without_order_section_still_load() {
        // Forge a v1 file from a v2 one: drop the (empty) order section's
        // 4-byte count, rewrite the version field, reseal the checksum.
        let mut dd = DdManager::new();
        let state = entangled_state(&mut dd, 3);
        let snap = capture_of(&dd, state, 3);
        assert!(snap.order.is_empty());
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let checksum_at = bytes.len() - 8;
        let order_count_at = checksum_at - 4;
        bytes.drain(order_count_at..checksum_at);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        reseal(&mut bytes);
        let read = Snapshot::read_from(&mut bytes.as_slice()).unwrap();
        assert!(read.order.is_empty(), "v1 files restore the identity order");
        assert_eq!(read.nodes, snap.nodes);
        let (restored, _) = read.restore(DdConfig::default()).unwrap();
        assert!(restored.var_order().is_identity());
    }

    #[test]
    fn non_permutation_order_section_is_rejected() {
        let mut dd = DdManager::new();
        let state = entangled_state(&mut dd, 3);
        let mut snap = capture_of(&dd, state, 3);
        snap.order = vec![0, 0, 2];
        assert!(matches!(
            snap.restore(DdConfig::default()),
            Err(SnapshotError::Corrupt(_))
        ));
        snap.order = vec![0, 1];
        assert!(matches!(
            snap.restore(DdConfig::default()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn save_and_load_via_tempfile() {
        let mut dd = DdManager::new();
        let state = entangled_state(&mut dd, 5);
        let snap = capture_of(&dd, state, 5);
        let dir = std::env::temp_dir().join("ddsim-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ddsnap");
        snap.save(&path).unwrap();
        let read = Snapshot::load(&path).unwrap();
        assert_eq!(read, snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_leaves_no_temp_file_and_replaces_atomically() {
        let mut dd = DdManager::new();
        let state = entangled_state(&mut dd, 4);
        let snap = capture_of(&dd, state, 4);
        let dir = std::env::temp_dir().join("ddsim-snapshot-write-path");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.ddsnap");
        let tmp = path.with_extension("tmp");

        // First save: the temp file must not survive a successful write.
        snap.save(&path).unwrap();
        assert!(path.exists());
        assert!(!tmp.exists(), "temp file left behind after save");

        // Overwrite with a different snapshot: the old file is replaced,
        // never appended to or left torn, and loads as the new content.
        let mut dd2 = DdManager::new();
        let state2 = entangled_state(&mut dd2, 6);
        let snap2 = capture_of(&dd2, state2, 6);
        snap2.save(&path).unwrap();
        assert!(!tmp.exists());
        let read = Snapshot::load(&path).unwrap();
        assert_eq!(read, snap2);
        assert_ne!(read, snap);

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn save_into_missing_directory_fails_without_droppings() {
        let mut dd = DdManager::new();
        let state = entangled_state(&mut dd, 3);
        let snap = capture_of(&dd, state, 3);
        let dir = std::env::temp_dir().join("ddsim-snapshot-no-such-dir");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("ckpt.ddsnap");
        assert!(matches!(snap.save(&path), Err(SnapshotError::Io(_))));
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn sync_parent_dir_handles_bare_and_nested_paths() {
        // A bare filename has no parent component; the helper must fall
        // back to "." instead of erroring.
        sync_parent_dir(Path::new("just-a-name.ddsnap")).unwrap();
        let dir = std::env::temp_dir().join("ddsim-snapshot-syncdir");
        std::fs::create_dir_all(&dir).unwrap();
        sync_parent_dir(&dir.join("f.ddsnap")).unwrap();
        std::fs::remove_dir(&dir).ok();
    }
}
