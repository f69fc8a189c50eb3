//! Compressed Sparse Row graph storage — the data manager's native graph
//! representation (§III).
//!
//! The sorting library is graph-flavoured in the paper's evaluation
//! (Fig. 8 sorts Twitter graph data); the harness generates R-MAT graphs,
//! stores them in CSR per machine, and sorts per-vertex keys (degrees,
//! destination ids) extracted from the CSR.

/// An immutable CSR graph (or graph partition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `row_ptr[v]..row_ptr[v+1]` indexes `col_idx` with v's out-edges.
    row_ptr: Vec<usize>,
    /// Edge destinations, grouped by source vertex.
    col_idx: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from an edge list over `num_vertices` vertices.
    /// Edges may arrive in any order; within a vertex they are stored in
    /// arrival order.
    pub fn from_edges(num_vertices: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0usize; num_vertices];
        for &(src, _) in edges {
            degree[src as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(num_vertices + 1);
        row_ptr.push(0);
        for v in 0..num_vertices {
            row_ptr.push(row_ptr[v] + degree[v]);
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; edges.len()];
        for &(src, dst) in edges {
            let s = src as usize;
            col_idx[cursor[s]] = dst;
            cursor[s] += 1;
        }
        Csr { row_ptr, col_idx }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.row_ptr[v + 1] - self.row_ptr[v]
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[v]..self.row_ptr[v + 1]]
    }

    /// All out-degrees as a vector (a classic sort key for Fig. 8-style
    /// experiments).
    pub fn degrees(&self) -> Vec<u64> {
        (0..self.num_vertices())
            .map(|v| self.degree(v) as u64)
            .collect()
    }

    /// All edge destinations (heavily duplicated on power-law graphs —
    /// the duplicate-rich key distribution the investigator targets).
    pub fn edge_dsts(&self) -> &[u32] {
        &self.col_idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 2, 3 -> 0 (vertex 2 is a sink)
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 2), (3, 0)])
    }

    #[test]
    fn shape_and_degrees() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.degrees(), vec![2, 1, 0, 1]);
    }

    #[test]
    fn neighbors_grouped_by_source() {
        let g = sample();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.neighbors(3), &[0]);
    }

    #[test]
    fn unordered_edge_input() {
        let shuffled = Csr::from_edges(4, &[(3, 0), (0, 1), (1, 2), (0, 2)]);
        assert_eq!(shuffled.neighbors(0), &[1, 2]);
        assert_eq!(shuffled.degree(3), 1);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        let g = Csr::from_edges(5, &[]);
        assert_eq!(g.num_vertices(), 5);
        assert!(g.degrees().iter().all(|&d| d == 0));
    }

    #[test]
    fn edge_dsts_exposes_all_destinations() {
        let g = sample();
        let mut dsts = g.edge_dsts().to_vec();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![0, 1, 2, 2]);
    }
}
