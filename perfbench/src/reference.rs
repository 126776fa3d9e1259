//! Host-speed reference. The host shares its cores and caches with other
//! machines, and this process's speed on it swings by up to 1.7× for a
//! minute or more at a time, longer than a run. Between operations the
//! benchmark times a fixed piece of work of its own: a small
//! discrete-event loop (a binary-heap event queue, per-node ordered maps,
//! a heap-allocated payload per event) that stalls on the same shared
//! resources as the simulator. It is benchmark code, identical for every
//! commit measured, so scaling a run's timings by how much slower than
//! [`NOMINAL_SECS`] the reference ran during that run removes much of the
//! host's swing (the reference slows less than the simulator does, so not
//! all of it) and none of the program's own change.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// The reference sample time that normalized timings are scaled to: they
/// read as seconds on a core where one sample takes this long, which is
/// about what an uncontended 2.1 GHz Xeon core takes.
pub const NOMINAL_SECS: f64 = 1.0e-3;

/// Events one sample dispatches.
const EVENTS: usize = 3_000;
const NODES: u32 = 512;
const PENDING: u32 = 2_048;
/// Entries a node's table keeps.
const TABLE_CAP: usize = 256;

pub struct Reference {
    nodes: Vec<BTreeMap<u32, u64>>,
    queue: BinaryHeap<Reverse<(u64, u32, u32)>>,
    rng: u64,
    /// Duration of every sample, s.
    pub samples: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference {
            nodes: (0..NODES).map(|_| BTreeMap::new()).collect(),
            queue: (0..PENDING)
                .map(|i| Reverse((u64::from(i), i % NODES, i)))
                .collect(),
            rng: 0x9e37_79b9_7f4a_7c15,
            samples: Vec::new(),
        }
    }
}

impl Reference {
    /// xorshift64: the reference's own deterministic stream.
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Time one sample: [`EVENTS`] events, after as many untimed ones
    /// that bring the reference's data back into the caches, so that the
    /// sample does not depend on what the program ran before it.
    pub fn sample(&mut self) {
        self.events();
        let t = Instant::now();
        self.events();
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// [`EVENTS`] events, each reading a payload into its node's table and
    /// scheduling one more event.
    fn events(&mut self) {
        for _ in 0..EVENTS {
            let Some(Reverse((at, node, key))) = self.queue.pop() else {
                break;
            };
            let payload = vec![key as u8; 64 + key as usize % 192];
            let table = &mut self.nodes[node as usize];
            *table.entry(key % 4096).or_insert(0) +=
                payload.iter().map(|&b| u64::from(b)).sum::<u64>();
            if table.len() > TABLE_CAP {
                table.pop_first();
            }
            let r = self.next();
            let to = (r % u64::from(NODES)) as u32;
            self.queue
                .push(Reverse((at + 1 + (r >> 40) % 1000, to, (r >> 8) as u32)));
        }
    }

    /// The factor that turns this run's measured seconds into seconds on
    /// the nominal core: [`NOMINAL_SECS`] over the median sample; 1 when
    /// nothing was sampled.
    pub fn scale(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        NOMINAL_SECS / crate::median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_do_the_same_work_every_time() {
        let (mut a, mut b) = (Reference::default(), Reference::default());
        for _ in 0..3 {
            a.sample();
            b.sample();
        }
        assert_eq!(a.rng, b.rng);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.samples.len(), 3);
        assert!(a.scale() > 0.0);
    }
}
