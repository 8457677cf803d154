//! A counting and timing [`DataPlane`] wrapper.
//!
//! [`Probe`] forwards every call to the plane it wraps and records, per
//! operation kind, the calls, bytes and wall time spent inside the
//! plane, grouped by the engine call that encloses them ([`Scope`]).
//! Several probes may share one [`ProbeStats`] (the trainer's and the
//! drain worker's), each with its own scope. With a tracer attached,
//! every forwarded call is also a span on a `plane` track.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ecc_cluster::{ClusterError, DataPlane, NodeId};
use ecc_trace::{Span, Tracer, TrackId};

/// The engine call a plane operation happens under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// `EcCheck::save`.
    Save,
    /// `EcCheck::save_delta`.
    Delta,
    /// `EcCheck::load`.
    Load,
    /// The tier-1 drain worker.
    Drain,
    /// Anything else (setup, failure injection).
    Other,
}

const SCOPES: usize = 5;

/// Kinds of plane operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `put_local` and `put_remote`.
    Put,
    /// `get_local` and `get_remote`.
    Get,
    /// `delete_local`.
    Delete,
    /// `alive` and `local_keys`.
    Meta,
}

const KINDS: usize = 4;

/// Totals for one (scope, kind) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Calls made.
    pub calls: u64,
    /// Blob bytes moved (written for puts, returned for gets).
    pub bytes: u64,
    /// Wall time spent inside the wrapped plane, nanoseconds.
    pub ns: u64,
}

/// Per-scope, per-kind totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeStats {
    cells: [[OpTotals; KINDS]; SCOPES],
}

impl ProbeStats {
    /// Totals of `kind` operations made under `scope`.
    pub fn get(&self, scope: Scope, kind: Kind) -> OpTotals {
        self.cells[scope as usize][kind as usize]
    }

    /// Wall time of every operation kind under `scope`, nanoseconds.
    pub fn scope_ns(&self, scope: Scope) -> u64 {
        self.cells[scope as usize].iter().map(|c| c.ns).sum()
    }

    fn record(&mut self, scope: Scope, kind: Kind, bytes: u64, ns: u64) {
        let cell = &mut self.cells[scope as usize][kind as usize];
        cell.calls += 1;
        cell.bytes += bytes;
        cell.ns += ns;
    }
}

/// The wrapper. See the module docs.
pub struct Probe<P> {
    inner: P,
    scope: Cell<Scope>,
    stats: Arc<Mutex<ProbeStats>>,
    trace: Option<(Tracer, TrackId)>,
}

impl<P: DataPlane> Probe<P> {
    /// Wraps `inner` with fresh totals, scope [`Scope::Other`].
    pub fn new(inner: P) -> Self {
        Self::sharing(inner, Arc::new(Mutex::new(ProbeStats::default())), Scope::Other)
    }

    /// Wraps `inner`, adding into existing `stats` under `scope`.
    pub fn sharing(inner: P, stats: Arc<Mutex<ProbeStats>>, scope: Scope) -> Self {
        Self { inner, scope: Cell::new(scope), stats, trace: None }
    }

    /// The wrapped plane.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped plane, mutably.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// The shared totals.
    pub fn stats(&self) -> Arc<Mutex<ProbeStats>> {
        Arc::clone(&self.stats)
    }

    /// A copy of the totals so far.
    pub fn snapshot(&self) -> ProbeStats {
        self.stats.lock().expect("probe stats lock poisoned").clone()
    }

    /// Zeroes the shared totals.
    pub fn reset_stats(&self) {
        *self.stats.lock().expect("probe stats lock poisoned") = ProbeStats::default();
    }

    /// Attributes subsequent operations to `scope`.
    pub fn set_scope(&self, scope: Scope) {
        self.scope.set(scope);
    }

    /// Emits a span per forwarded call on `track` of `tracer`.
    pub fn set_tracer(&mut self, tracer: &Tracer, track: TrackId) {
        self.trace = Some((tracer.clone(), track));
    }

    fn span(&self, name: &str, node: Option<NodeId>) -> Option<Span> {
        self.trace.as_ref().map(|(t, track)| {
            t.span(*track, name, node.map(|n| format!("node={n}")).unwrap_or_default())
        })
    }

    fn record(&self, kind: Kind, bytes: usize, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.lock().expect("probe stats lock poisoned").record(
            self.scope.get(),
            kind,
            bytes as u64,
            ns,
        );
    }
}

impl<P: DataPlane> DataPlane for Probe<P> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn alive(&self, node: NodeId) -> bool {
        let _span = self.span("plane.alive", Some(node));
        let t = Instant::now();
        let alive = self.inner.alive(node);
        self.record(Kind::Meta, 0, t);
        alive
    }

    fn put_local(&mut self, node: NodeId, key: &str, bytes: Vec<u8>) -> Result<(), ClusterError> {
        let _span = self.span("plane.put_local", Some(node));
        let len = bytes.len();
        let t = Instant::now();
        let result = self.inner.put_local(node, key, bytes);
        self.record(Kind::Put, len, t);
        result
    }

    fn get_local(&self, node: NodeId, key: &str) -> Option<Vec<u8>> {
        let _span = self.span("plane.get_local", Some(node));
        let t = Instant::now();
        let blob = self.inner.get_local(node, key);
        self.record(Kind::Get, blob.as_ref().map_or(0, Vec::len), t);
        blob
    }

    fn delete_local(&mut self, node: NodeId, key: &str) {
        let _span = self.span("plane.delete_local", Some(node));
        let t = Instant::now();
        self.inner.delete_local(node, key);
        self.record(Kind::Delete, 0, t);
    }

    fn put_remote(&mut self, key: &str, bytes: Vec<u8>) {
        let _span = self.span("plane.put_remote", None);
        let len = bytes.len();
        let t = Instant::now();
        self.inner.put_remote(key, bytes);
        self.record(Kind::Put, len, t);
    }

    fn get_remote(&self, key: &str) -> Option<Vec<u8>> {
        let _span = self.span("plane.get_remote", None);
        let t = Instant::now();
        let blob = self.inner.get_remote(key);
        self.record(Kind::Get, blob.as_ref().map_or(0, Vec::len), t);
        blob
    }

    fn local_keys(&self, node: NodeId) -> Vec<String> {
        let _span = self.span("plane.local_keys", Some(node));
        let t = Instant::now();
        let keys = self.inner.local_keys(node);
        self.record(Kind::Meta, 0, t);
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecc_cluster::{Cluster, ClusterSpec};

    #[test]
    fn totals_land_in_the_current_scope() {
        let mut probe = Probe::new(Cluster::new(ClusterSpec::tiny_test(2, 1)));
        probe.set_scope(Scope::Save);
        probe.put_local(0, "a", vec![7; 100]).unwrap();
        probe.set_scope(Scope::Load);
        assert_eq!(probe.get_local(0, "a").map(|b| b.len()), Some(100));
        assert_eq!(probe.get_local(1, "missing"), None);
        let s = probe.snapshot();
        assert_eq!(s.get(Scope::Save, Kind::Put).calls, 1);
        assert_eq!(s.get(Scope::Save, Kind::Put).bytes, 100);
        assert_eq!(s.get(Scope::Load, Kind::Get).calls, 2);
        assert_eq!(s.get(Scope::Load, Kind::Get).bytes, 100);
        assert_eq!(s.get(Scope::Load, Kind::Put), OpTotals::default());
    }
}
