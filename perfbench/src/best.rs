//! Best-of-repetitions timing. The host shares its cores with other
//! machines, and this process's speed on it swings by up to 2× over tens
//! of seconds, so a median over one run mostly measures the neighbours.
//! Every repetition of an operation is cut into the same pieces (setup,
//! each dispatch slice, finalize and export of a stress run; the phases of
//! each scenario on the campaign). The benchmark keeps the fastest time of
//! each piece over a run's repetitions and sums those by phase: the time
//! the code takes when nothing outside slows it, in which a difference
//! between two commits shows. A slowdown that lasts the whole run is left
//! to [`crate::reference`].

/// The phase a piece belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Setup,
    Dispatch,
    Finalize,
    Export,
}

/// One timed piece of a repetition.
#[derive(Clone, Copy, Debug)]
pub struct Piece {
    pub kind: Kind,
    pub secs: f64,
    pub cpu_secs: f64,
}

/// The fastest wall and CPU time of each piece over the repetitions seen.
#[derive(Default)]
pub struct BestOf {
    best: Vec<Piece>,
    pub reps: usize,
}

impl BestOf {
    /// Fold one repetition in. A repetition whose pieces differ from the
    /// earlier ones' (one with a failed operation) is left out: returns
    /// false.
    pub fn add(&mut self, pieces: &[Piece]) -> bool {
        if self.reps == 0 {
            self.best = pieces.to_vec();
        } else {
            let same_shape = pieces.len() == self.best.len()
                && pieces.iter().zip(&self.best).all(|(p, b)| p.kind == b.kind);
            if !same_shape {
                return false;
            }
            for (b, p) in self.best.iter_mut().zip(pieces) {
                b.secs = b.secs.min(p.secs);
                b.cpu_secs = b.cpu_secs.min(p.cpu_secs);
            }
        }
        self.reps += 1;
        true
    }

    /// Summed fastest wall time of the pieces of one phase.
    pub fn secs(&self, kind: Kind) -> f64 {
        self.best
            .iter()
            .filter(|p| p.kind == kind)
            .map(|p| p.secs)
            .sum()
    }

    /// Summed fastest wall time of every piece.
    pub fn total_secs(&self) -> f64 {
        self.best.iter().map(|p| p.secs).sum()
    }

    /// Summed fastest CPU time of every piece.
    pub fn total_cpu_secs(&self) -> f64 {
        self.best.iter().map(|p| p.cpu_secs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn piece(kind: Kind, secs: f64) -> Piece {
        Piece {
            kind,
            secs,
            cpu_secs: secs / 2.0,
        }
    }

    #[test]
    fn keeps_the_fastest_of_each_piece() {
        let mut b = BestOf::default();
        assert!(b.add(&[piece(Kind::Setup, 1.0), piece(Kind::Dispatch, 4.0)]));
        assert!(b.add(&[piece(Kind::Setup, 2.0), piece(Kind::Dispatch, 3.0)]));
        assert!(!b.add(&[piece(Kind::Setup, 0.1)]));
        assert_eq!(b.reps, 2);
        assert_eq!(b.secs(Kind::Setup), 1.0);
        assert_eq!(b.secs(Kind::Dispatch), 3.0);
        assert_eq!(b.total_secs(), 4.0);
        assert_eq!(b.total_cpu_secs(), 2.0);
    }
}
