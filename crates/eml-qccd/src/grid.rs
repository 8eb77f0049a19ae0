//! Monolithic QCCD grid device — the architecture the baseline compilers target.

use serde::{Deserialize, Serialize};

use crate::DeviceError;

/// Identifier of a trap in a [`QccdGridDevice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TrapId(pub usize);

impl TrapId {
    /// The raw index of the trap (row-major).
    pub const fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TrapId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Configuration of a monolithic QCCD grid: `rows × cols` traps connected to
/// their orthogonal neighbours through junctions, every trap holding up to
/// `trap_capacity` ions and able to execute gates locally (this is the
/// "traditional QCCD" model of Murali et al. that the paper compares against).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridConfig {
    rows: usize,
    cols: usize,
    trap_capacity: usize,
    /// Centre-to-centre distance between adjacent traps, in micrometres.
    inter_trap_distance_um: f64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            rows: 2,
            cols: 2,
            trap_capacity: 16,
            inter_trap_distance_um: 200.0,
        }
    }
}

impl GridConfig {
    /// Creates a `rows × cols` grid with the given per-trap capacity.
    pub fn new(rows: usize, cols: usize, trap_capacity: usize) -> Self {
        GridConfig {
            rows,
            cols,
            trap_capacity,
            ..Default::default()
        }
    }

    /// Grid sized per the paper's Section 4: 2×2 (capacity 12) for small
    /// applications, 3×4 for medium, 4×5 for large — all with capacity 16
    /// unless the small-scale Table 2 capacities are requested explicitly.
    pub fn for_qubits(num_qubits: usize) -> Self {
        if num_qubits <= 48 {
            GridConfig::new(2, 2, 16)
        } else if num_qubits <= 160 {
            GridConfig::new(3, 4, 16)
        } else {
            GridConfig::new(4, 5, 16)
        }
    }

    /// Sets the inter-trap distance in micrometres.
    pub fn with_inter_trap_distance_um(mut self, distance: f64) -> Self {
        self.inter_trap_distance_um = distance;
        self
    }

    /// Sets the per-trap capacity.
    pub fn with_trap_capacity(mut self, capacity: usize) -> Self {
        self.trap_capacity = capacity;
        self
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-trap ion capacity.
    pub fn trap_capacity(&self) -> usize {
        self.trap_capacity
    }

    /// Centre-to-centre distance between adjacent traps.
    pub fn inter_trap_distance_um(&self) -> f64 {
        self.inter_trap_distance_um
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidConfig`] for empty grids or capacities
    /// below 2.
    pub fn validate(&self) -> Result<(), DeviceError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(DeviceError::InvalidConfig(
                "grid must have at least one trap".into(),
            ));
        }
        if self.trap_capacity < 2 {
            return Err(DeviceError::InvalidConfig(
                "trap capacity must be at least 2".into(),
            ));
        }
        if !self.inter_trap_distance_um.is_finite() || self.inter_trap_distance_um <= 0.0 {
            return Err(DeviceError::InvalidConfig(
                "inter-trap distance must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Builds the grid device.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; use [`GridConfig::try_build`] to
    /// handle the error.
    pub fn build(&self) -> QccdGridDevice {
        self.try_build().expect("invalid QCCD grid configuration")
    }

    /// Builds the grid device, returning an error for invalid configurations.
    ///
    /// # Errors
    ///
    /// Propagates [`GridConfig::validate`] failures.
    pub fn try_build(&self) -> Result<QccdGridDevice, DeviceError> {
        self.validate()?;
        let traps = (0..self.rows * self.cols).map(TrapId).collect();
        Ok(QccdGridDevice {
            config: self.clone(),
            traps,
        })
    }
}

/// A monolithic QCCD grid device (static topology).
///
/// ```
/// use eml_qccd::{GridConfig, TrapId};
///
/// let grid = GridConfig::new(3, 4, 16).build();
/// assert_eq!(grid.num_traps(), 12);
/// assert_eq!(grid.hop_distance(TrapId(0), TrapId(11)), 5);
/// assert_eq!(grid.neighbors(TrapId(0)).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QccdGridDevice {
    config: GridConfig,
    /// All trap ids, row-major — precomputed so [`QccdGridDevice::traps`]
    /// serves a borrowed slice instead of allocating per call.
    traps: Vec<TrapId>,
}

impl QccdGridDevice {
    /// The configuration this grid was built from.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Total number of traps.
    pub fn num_traps(&self) -> usize {
        self.config.rows * self.config.cols
    }

    /// Total ion capacity.
    pub fn total_capacity(&self) -> usize {
        self.num_traps() * self.config.trap_capacity
    }

    /// Per-trap capacity.
    pub fn trap_capacity(&self) -> usize {
        self.config.trap_capacity
    }

    /// All trap ids, row-major (precomputed slice).
    pub fn traps(&self) -> &[TrapId] {
        &self.traps
    }

    /// The `(row, col)` coordinates of a trap.
    pub fn coordinates(&self, trap: TrapId) -> (usize, usize) {
        (
            trap.index() / self.config.cols,
            trap.index() % self.config.cols,
        )
    }

    /// The trap at `(row, col)`, if it exists.
    pub fn trap_at(&self, row: usize, col: usize) -> Option<TrapId> {
        (row < self.config.rows && col < self.config.cols)
            .then(|| TrapId(row * self.config.cols + col))
    }

    /// Orthogonal neighbours of a trap.
    pub fn neighbors(&self, trap: TrapId) -> Vec<TrapId> {
        let (r, c) = self.coordinates(trap);
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push(self.trap_at(r - 1, c).unwrap());
        }
        if c > 0 {
            out.push(self.trap_at(r, c - 1).unwrap());
        }
        if let Some(t) = self.trap_at(r + 1, c) {
            out.push(t);
        }
        if let Some(t) = self.trap_at(r, c + 1) {
            out.push(t);
        }
        out
    }

    /// Manhattan hop distance between two traps (the number of shuttle hops a
    /// transported ion needs).
    pub fn hop_distance(&self, a: TrapId, b: TrapId) -> usize {
        let (ar, ac) = self.coordinates(a);
        let (br, bc) = self.coordinates(b);
        ar.abs_diff(br) + ac.abs_diff(bc)
    }

    /// The trap after `at` on the shortest route to `to` that walks rows
    /// first, then columns; `None` once `at == to`. Following it from `a`
    /// visits every trap of that route, hop by hop, without building it.
    pub fn next_hop(&self, at: TrapId, to: TrapId) -> Option<TrapId> {
        let (r, c) = self.coordinates(at);
        let (tr, tc) = self.coordinates(to);
        let step = |from: usize, target: usize| if target > from { from + 1 } else { from - 1 };
        if r != tr {
            self.trap_at(step(r, tr), c)
        } else if c != tc {
            self.trap_at(r, step(c, tc))
        } else {
            None
        }
    }

    /// One shortest path from `a` to `b` (inclusive of both endpoints),
    /// walking rows first then columns: the allocating test oracle for the
    /// in-place walk of [`QccdGridDevice::next_hop`].
    #[cfg(test)]
    pub(crate) fn shortest_path(&self, a: TrapId, b: TrapId) -> Vec<TrapId> {
        let (ar, ac) = self.coordinates(a);
        let (br, bc) = self.coordinates(b);
        let mut path = vec![a];
        let (mut r, mut c) = (ar, ac);
        while r != br {
            r = if br > r { r + 1 } else { r - 1 };
            path.push(self.trap_at(r, c).unwrap());
        }
        while c != bc {
            c = if bc > c { c + 1 } else { c - 1 };
            path.push(self.trap_at(r, c).unwrap());
        }
        path
    }

    /// Physical distance of one hop, in micrometres.
    pub fn hop_distance_um(&self) -> f64 {
        self.config.inter_trap_distance_um
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dimensions_and_capacity() {
        let g = GridConfig::new(4, 5, 16).build();
        assert_eq!(g.num_traps(), 20);
        assert_eq!(g.total_capacity(), 320);
    }

    #[test]
    fn for_qubits_matches_paper_grids() {
        assert_eq!(GridConfig::for_qubits(32).build().num_traps(), 4);
        assert_eq!(GridConfig::for_qubits(128).build().num_traps(), 12);
        assert_eq!(GridConfig::for_qubits(299).build().num_traps(), 20);
    }

    #[test]
    fn coordinates_round_trip() {
        let g = GridConfig::new(3, 4, 8).build();
        for &t in g.traps() {
            let (r, c) = g.coordinates(t);
            assert_eq!(g.trap_at(r, c), Some(t));
        }
        assert_eq!(g.trap_at(3, 0), None);
    }

    #[test]
    fn corner_traps_have_two_neighbors() {
        let g = GridConfig::new(3, 3, 8).build();
        assert_eq!(g.neighbors(TrapId(0)).len(), 2);
        assert_eq!(g.neighbors(TrapId(4)).len(), 4);
    }

    #[test]
    fn shortest_path_has_hop_distance_plus_one_traps() {
        let g = GridConfig::new(4, 5, 8).build();
        let a = TrapId(0);
        let b = TrapId(19);
        let path = g.shortest_path(a, b);
        assert_eq!(path.len(), g.hop_distance(a, b) + 1);
        assert_eq!(*path.first().unwrap(), a);
        assert_eq!(*path.last().unwrap(), b);
        // Consecutive traps are neighbours.
        for w in path.windows(2) {
            assert_eq!(g.hop_distance(w[0], w[1]), 1);
        }
    }

    #[test]
    fn next_hop_walks_the_shortest_path_hop_for_hop() {
        let g = GridConfig::new(4, 5, 8).build();
        for &a in g.traps() {
            for &b in g.traps() {
                let mut walked = vec![a];
                while let Some(next) = g.next_hop(*walked.last().unwrap(), b) {
                    walked.push(next);
                }
                assert_eq!(walked, g.shortest_path(a, b), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn invalid_grids_are_rejected() {
        assert!(GridConfig::new(0, 3, 8).validate().is_err());
        assert!(GridConfig::new(2, 2, 1).validate().is_err());
        assert!(GridConfig::new(2, 2, 8)
            .with_inter_trap_distance_um(0.0)
            .validate()
            .is_err());
    }
}
