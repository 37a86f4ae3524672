//! R3 fixture: float comparisons via partial_cmp (lines 4, 8, 16, 28).

fn sort_scores(scores: &mut Vec<f64>) {
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

fn pick(xs: &[(usize, f64)]) -> Option<usize> {
    xs.iter().min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite")).map(|x| x.0)
}

fn fine(scores: &mut [f64]) {
    scores.sort_by(f64::total_cmp);
}

fn path_call(scores: &mut [f64]) {
    scores.sort_by(|a, b| f64::partial_cmp(a, b).unwrap());
}

// A hand-written `PartialOrd` defines `partial_cmp` without comparing floats:
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.0.partial_cmp(&other.0)
    }
}
