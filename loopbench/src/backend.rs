//! A [`TraciBackend`] that delegates to a simulation and, when tracing,
//! times `step_once` and every query on the TraCI server thread.
//!
//! The driving thread publishes the current tick (its group id and the
//! span the server-side work nests under) before each step, so spans from
//! the two threads line up.

use crate::trace::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use velopt_common::units::{MetersPerSecond, Seconds};
use velopt_common::Result;
use velopt_road::Phase;
use velopt_traci::{TraciBackend, VehicleView};

/// Where server-side spans attach: the tick's group id and parent span.
#[derive(Debug, Default)]
pub struct TickMark {
    group: AtomicU64,
    parent: AtomicU64,
}

impl TickMark {
    /// Publishes the tick subsequent server work belongs to. The TraCI
    /// request that follows carries the happens-before edge to the server
    /// thread, so relaxed stores suffice.
    pub fn set(&self, group: u64, parent: Option<u64>) {
        self.group.store(group, Ordering::Relaxed);
        self.parent.store(parent.unwrap_or(0), Ordering::Relaxed);
    }

    fn get(&self) -> (u64, Option<u64>) {
        let parent = self.parent.load(Ordering::Relaxed);
        (
            self.group.load(Ordering::Relaxed),
            (parent != 0).then_some(parent),
        )
    }
}

/// The traced wrapper around a `Simulation` or `Network`.
pub struct Traced<B> {
    pub inner: B,
    tracer: Arc<Tracer>,
    mark: Arc<TickMark>,
    /// Vehicles listed by the most recent `vehicle_ids` query.
    listed: Arc<AtomicU64>,
}

impl<B> Traced<B> {
    pub fn new(inner: B, tracer: Arc<Tracer>, mark: Arc<TickMark>, listed: Arc<AtomicU64>) -> Self {
        Self {
            inner,
            tracer,
            mark,
            listed,
        }
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce(&Self) -> T) -> T {
        let (group, parent) = self.mark.get();
        let open = self.tracer.begin(name, group, parent);
        let out = f(self);
        self.tracer.end(open);
        out
    }
}

impl<B: TraciBackend> TraciBackend for Traced<B> {
    fn time(&self) -> Seconds {
        self.span("traci.backend", |s| s.inner.time())
    }

    fn step_once(&mut self) {
        let (group, parent) = self.mark.get();
        let open = self.tracer.begin("microsim.step", group, parent);
        self.inner.step_once();
        self.tracer.end(open);
    }

    fn advance_to(&mut self, t: Seconds) -> Result<()> {
        let (group, parent) = self.mark.get();
        let open = self.tracer.begin("microsim.step", group, parent);
        let out = self.inner.advance_to(t);
        self.tracer.end(open);
        out
    }

    fn vehicle_ids(&self) -> Vec<String> {
        let ids = self.span("traci.backend", |s| s.inner.vehicle_ids());
        self.listed.store(ids.len() as u64, Ordering::Relaxed);
        ids
    }

    fn vehicle_state(&self, object: &str) -> Option<VehicleView> {
        self.span("traci.backend", |s| s.inner.vehicle_state(object))
    }

    fn light_phase(&self, object: &str) -> Result<Phase> {
        self.span("traci.backend", |s| s.inner.light_phase(object))
    }

    fn loop_last_step_count(&self, object: &str) -> Result<u64> {
        self.span("traci.backend", |s| s.inner.loop_last_step_count(object))
    }

    fn command_vehicle_speed(
        &mut self,
        object: &str,
        speed: Option<MetersPerSecond>,
    ) -> Result<()> {
        let (group, parent) = self.mark.get();
        let open = self.tracer.begin("traci.backend", group, parent);
        let out = self.inner.command_vehicle_speed(object, speed);
        self.tracer.end(open);
        out
    }
}
