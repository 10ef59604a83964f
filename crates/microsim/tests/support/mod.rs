//! Seeded random junction graphs for the network bit-identity suites.
//!
//! A layout is a set of junction components, each a chain, a fan-in merge
//! or a single corridor. Components are laid out contiguously in corridor
//! index order, a component's links point forward or backward in that
//! order, and in about half the layouts two neighbouring components
//! interleave, so [`velopt_microsim::Network`] must fold them into one
//! stepping group. Corridors are short (0.6–1.2 km), so within a few
//! simulated minutes vehicles cross junctions and merge feeders hand off
//! in the same tick, where routing order decides the junction queue.

use velopt_common::rng::SplitMix64;
use velopt_common::units::{Meters, VehiclesPerHour};
use velopt_microsim::CorridorSpec;
use velopt_road::CorridorTemplate;

/// A junction graph: each corridor's `downstream`, and the corridor the
/// ego spawns on.
#[derive(Debug, Clone)]
pub struct Layout {
    pub downstream: Vec<Option<usize>>,
    /// The head of the largest component that does not hold corridor 0.
    pub ego: usize,
}

impl Layout {
    /// A seeded random layout of three to five components. Every layout has
    /// at least one chain, one fan-in merge and one single corridor.
    pub fn random(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x1A70_0715);
        let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
        // Per component, each local corridor's local downstream. Local
        // index 0 is always a head (no corridor feeds it).
        let count = 3 + below(3);
        let rotate = below(3);
        let components: Vec<Vec<Option<usize>>> = (0..count)
            .map(|k| {
                let kind = if k < 3 { (k + rotate) % 3 } else { below(3) };
                match kind {
                    0 => {
                        let len = 2 + below(3);
                        (0..len).map(|j| (j + 1 < len).then_some(j + 1)).collect()
                    }
                    // Two or three feeders merge into a sink, which may
                    // feed a tail.
                    1 => match below(3) {
                        0 => vec![Some(2), Some(2), None],
                        1 => vec![Some(2), Some(2), Some(3), None],
                        _ => vec![Some(3), Some(3), Some(3), None],
                    },
                    _ => vec![None],
                }
            })
            .collect();
        // Corridor slots in index order, as (component, local index); a
        // flipped component's links point backward in index order.
        let mut slots: Vec<(usize, usize)> = Vec::new();
        for (k, local) in components.iter().enumerate() {
            let (len, flip) = (local.len(), below(2) == 0);
            slots.extend((0..len).map(|j| (k, if flip { len - 1 - j } else { j })));
        }
        // In about half the layouts, components k and k + 1 alternate.
        if below(2) == 0 {
            let k = below(count - 1);
            let start = slots.iter().position(|s| s.0 == k).expect("k has slots");
            let end = start + components[k].len() + components[k + 1].len();
            let (a, b): (Vec<_>, Vec<_>) = slots[start..end].iter().partition(|s| s.0 == k);
            let mut mixed = Vec::with_capacity(end - start);
            for i in 0..a.len().max(b.len()) {
                mixed.extend(a.get(i).into_iter().chain(b.get(i)));
            }
            slots.splice(start..end, mixed);
        }
        let mut global: Vec<Vec<usize>> = components.iter().map(|c| vec![0; c.len()]).collect();
        for (index, &(k, j)) in slots.iter().enumerate() {
            global[k][j] = index;
        }
        let mut downstream = vec![None; slots.len()];
        for (k, local) in components.iter().enumerate() {
            for (j, d) in local.iter().enumerate() {
                downstream[global[k][j]] = d.map(|d| global[k][d]);
            }
        }
        let first = slots[0].0;
        let host = (0..count)
            .filter(|&k| k != first)
            .max_by_key(|&k| components[k].len())
            .expect("a layout has several components");
        Self {
            downstream,
            ego: global[host][0],
        }
    }

    /// Corridors no junction feeds.
    fn is_head(&self, corridor: usize) -> bool {
        !self.downstream.contains(&Some(corridor))
    }

    /// Seeded corridor specs on this layout: every head takes fresh arrivals
    /// at `rate`, every other corridor a quarter of it, the corridors with
    /// no feeder also a mid-corridor side entry, and every corridor a
    /// detector. `salt` varies the roads between suites.
    pub fn specs(&self, seed: u64, salt: u64, rate: f64) -> Vec<CorridorSpec> {
        let template = CorridorTemplate {
            length: (600.0, 1200.0),
            ..CorridorTemplate::default()
        };
        self.downstream
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let road = template
                    .generate(seed ^ (salt + i as u64))
                    .expect("template is valid");
                let mut spec = match d {
                    Some(d) => CorridorSpec::through(road, *d),
                    None => CorridorSpec::terminal(road),
                };
                if self.is_head(i) {
                    spec.arrival_rate = VehiclesPerHour::new(rate);
                    spec.side_entries
                        .push((Meters::new(300.0), VehiclesPerHour::new(rate / 2.0)));
                } else {
                    spec.arrival_rate = VehiclesPerHour::new(rate / 4.0);
                }
                spec.detectors.push(Meters::new(250.0));
                spec
            })
            .collect()
    }
}
