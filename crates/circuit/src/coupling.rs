use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// An undirected device connectivity graph. Two-qubit gates may only act on
/// connected physical qubit pairs; the router inserts SWAPs otherwise.
///
/// ```
/// use qsim_circuit::CouplingMap;
///
/// let yorktown = CouplingMap::yorktown();
/// assert_eq!(yorktown.n_qubits(), 5);
/// assert!(yorktown.are_adjacent(0, 2));
/// assert!(!yorktown.are_adjacent(0, 3));
/// assert_eq!(yorktown.shortest_path(0, 3), Some(vec![0, 2, 3]));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CouplingMap {
    n_qubits: usize,
    edges: BTreeSet<(usize, usize)>,
}

impl CouplingMap {
    /// Build a coupling map from undirected edges (normalized internally).
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit `>= n_qubits` or is a self-loop.
    pub fn new(n_qubits: usize, edges: &[(usize, usize)]) -> Self {
        let mut set = BTreeSet::new();
        for &(a, b) in edges {
            assert!(a < n_qubits && b < n_qubits, "edge ({a},{b}) out of range");
            assert_ne!(a, b, "self-loop edge on qubit {a}");
            set.insert((a.min(b), a.max(b)));
        }
        CouplingMap { n_qubits, edges: set }
    }

    /// The IBM Q 5 Yorktown ("bowtie") connectivity used in the paper's
    /// realistic experiments (§V.A): edges 0–1, 0–2, 1–2, 2–3, 2–4, 3–4.
    pub fn yorktown() -> Self {
        CouplingMap::new(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    }

    /// A fully connected device (no routing needed) — used for the paper's
    /// artificial scalability models, which assume uniform error rates and
    /// place no connectivity constraint (§V.B).
    pub fn full(n_qubits: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n_qubits {
            for b in a + 1..n_qubits {
                edges.push((a, b));
            }
        }
        CouplingMap::new(n_qubits, &edges)
    }

    /// A 1-D chain 0–1–2–…
    pub fn linear(n_qubits: usize) -> Self {
        let edges: Vec<(usize, usize)> = (1..n_qubits).map(|q| (q - 1, q)).collect();
        CouplingMap::new(n_qubits, &edges)
    }

    /// A rows×cols grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let q = r * cols + c;
                if c + 1 < cols {
                    edges.push((q, q + 1));
                }
                if r + 1 < rows {
                    edges.push((q, q + cols));
                }
            }
        }
        CouplingMap::new(rows * cols, &edges)
    }

    /// Number of physical qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Undirected edges, normalized `(low, high)`, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether `a` and `b` share an edge.
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.edges.contains(&(a.min(b), a.max(b)))
    }

    /// Neighbors of `q`.
    pub fn neighbors(&self, q: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == q {
                    Some(b)
                } else if b == q {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    /// BFS shortest path from `a` to `b` inclusive, `None` if disconnected
    /// or out of range.
    pub fn shortest_path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        if a >= self.n_qubits || b >= self.n_qubits {
            return None;
        }
        if a == b {
            return Some(vec![a]);
        }
        let mut prev = vec![usize::MAX; self.n_qubits];
        let mut queue = VecDeque::new();
        prev[a] = a;
        queue.push_back(a);
        while let Some(q) = queue.pop_front() {
            for n in self.neighbors(q) {
                if prev[n] == usize::MAX {
                    prev[n] = q;
                    if n == b {
                        let mut path = vec![b];
                        let mut cur = b;
                        while cur != a {
                            cur = prev[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(n);
                }
            }
        }
        None
    }

    /// BFS distance (edge count), `None` if disconnected.
    pub fn distance(&self, a: usize, b: usize) -> Option<usize> {
        self.shortest_path(a, b).map(|p| p.len() - 1)
    }

    /// Whether every qubit can reach every other.
    pub fn is_connected(&self) -> bool {
        if self.n_qubits <= 1 {
            return true;
        }
        (1..self.n_qubits).all(|q| self.distance(0, q).is_some())
    }
}

impl fmt::Display for CouplingMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CouplingMap({} qubits: ", self.n_qubits)?;
        for (i, (a, b)) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}-{b}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yorktown_bowtie_structure() {
        let map = CouplingMap::yorktown();
        assert_eq!(map.n_edges(), 6);
        assert!(map.are_adjacent(1, 2));
        assert!(map.are_adjacent(3, 4));
        assert!(!map.are_adjacent(1, 3));
        assert!(!map.are_adjacent(0, 4));
        assert!(map.is_connected());
        // Qubit 2 is the bowtie center.
        assert_eq!(map.neighbors(2), vec![0, 1, 3, 4]);
    }

    #[test]
    fn shortest_path_crosses_the_center() {
        let map = CouplingMap::yorktown();
        assert_eq!(map.shortest_path(1, 4), Some(vec![1, 2, 4]));
        assert_eq!(map.distance(0, 3), Some(2));
        assert_eq!(map.distance(0, 1), Some(1));
        assert_eq!(map.shortest_path(2, 2), Some(vec![2]));
    }

    #[test]
    fn linear_and_grid_shapes() {
        let line = CouplingMap::linear(4);
        assert_eq!(line.n_edges(), 3);
        assert_eq!(line.distance(0, 3), Some(3));
        let grid = CouplingMap::grid(2, 3);
        assert_eq!(grid.n_qubits(), 6);
        assert_eq!(grid.n_edges(), 7);
        assert_eq!(grid.distance(0, 5), Some(3));
    }

    #[test]
    fn full_map_is_diameter_one() {
        let full = CouplingMap::full(6);
        assert_eq!(full.n_edges(), 15);
        for a in 0..6 {
            for b in 0..6 {
                if a != b {
                    assert_eq!(full.distance(a, b), Some(1));
                }
            }
        }
    }

    #[test]
    fn disconnected_components_report_none() {
        let map = CouplingMap::new(4, &[(0, 1), (2, 3)]);
        assert_eq!(map.distance(0, 3), None);
        assert!(!map.is_connected());
    }

    #[test]
    fn edges_are_normalized() {
        let map = CouplingMap::new(3, &[(2, 0), (0, 2), (1, 0)]);
        assert_eq!(map.n_edges(), 2);
        assert!(map.are_adjacent(0, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let _ = CouplingMap::new(2, &[(0, 2)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let _ = CouplingMap::new(2, &[(1, 1)]);
    }

    #[test]
    fn out_of_range_path_is_none() {
        let map = CouplingMap::linear(3);
        assert_eq!(map.shortest_path(0, 9), None);
    }
}
