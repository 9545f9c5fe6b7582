//! Topology-aware partitioning of tiles onto shards.
//!
//! A [`Partition`] assigns every tile to exactly one shard. For row-major
//! meshes (the paper's topology), [`Partitioner::mesh`] aligns shard
//! boundaries to complete rows *or* complete columns — whichever orientation
//! yields the smaller cut set: a boundary between row bands cuts `width`
//! links while a boundary between column bands cuts `height` links, so wide
//! meshes (`width > height`) are split along columns and tall or square
//! meshes along rows. Bands are balanced to within one row/column. For
//! geometries without a natural row structure, [`Partitioner::linear`] falls
//! back to balanced contiguous index ranges (±1 tile).
//!
//! Row bands are contiguous blocks of node indices; column bands are not
//! (row-major order interleaves them), so a shard's tiles are reported as an
//! explicit sorted index list ([`Partition::members`]).
//!
//! The cut set — the links whose endpoints land in different shards — is what
//! the runtime turns into boundary mailboxes; [`Partition::cut_links`]
//! computes and reports it for any edge list.

use hornet_net::ids::NodeId;

/// Which mesh axis the shard boundaries run along.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CutOrientation {
    /// Shards are bands of complete rows (boundaries cut vertical links).
    Rows,
    /// Shards are bands of complete columns (boundaries cut horizontal
    /// links).
    Columns,
}

/// Splits tiles into shards.
#[derive(Copy, Clone, Debug)]
pub struct Partitioner {
    shards: usize,
}

impl Partitioner {
    /// Creates a partitioner targeting `shards` shards (at least one). The
    /// actual shard count may come out lower when the topology cannot feed
    /// that many shards (fewer rows/columns/tiles than requested shards).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
        }
    }

    /// Band partition of a `width × height` row-major mesh, oriented along
    /// whichever axis yields the smaller cut set: every boundary between row
    /// bands cuts `width` vertical links, every boundary between column bands
    /// cuts `height` horizontal links, so the partitioner cuts rows when
    /// `width ≤ height` and columns when `width > height`. Bands are balanced
    /// to within one row/column. This is the minimum-cut contiguous band
    /// partition of a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mesh(&self, width: usize, height: usize) -> Partition {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        if width > height {
            self.mesh_oriented(width, height, CutOrientation::Columns)
        } else {
            self.mesh_oriented(width, height, CutOrientation::Rows)
        }
    }

    /// Band partition of a mesh with an explicitly chosen orientation (see
    /// [`Partitioner::mesh`] for the automatic choice).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mesh_oriented(
        &self,
        width: usize,
        height: usize,
        orientation: CutOrientation,
    ) -> Partition {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        // A band is a run of complete rows (or columns); `axis` is the number
        // of bands available, `span` the tiles per row/column.
        let axis = match orientation {
            CutOrientation::Rows => height,
            CutOrientation::Columns => width,
        };
        let shards = self.shards.min(axis);
        let base = axis / shards;
        let extra = axis % shards;
        let mut members: Vec<Vec<usize>> = Vec::with_capacity(shards);
        let mut first = 0usize;
        for s in 0..shards {
            let bands = base + usize::from(s < extra);
            let band = first..(first + bands);
            let mut tiles = Vec::with_capacity(bands * width * height / axis);
            match orientation {
                CutOrientation::Rows => {
                    // Rows are contiguous in row-major order.
                    tiles.extend((band.start * width)..(band.end * width));
                }
                CutOrientation::Columns => {
                    // Ascending y outer, ascending x inner: already sorted.
                    for y in 0..height {
                        for x in band.clone() {
                            tiles.push(y * width + x);
                        }
                    }
                    debug_assert!(tiles.windows(2).all(|w| w[0] < w[1]));
                }
            }
            members.push(tiles);
            first += bands;
        }
        debug_assert_eq!(first, axis);
        Partition::from_members(members, orientation)
    }

    /// Balanced contiguous index-range partition of `node_count` tiles
    /// (shard sizes differ by at most one tile). The fallback for geometries
    /// without a row structure.
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0`.
    pub fn linear(&self, node_count: usize) -> Partition {
        assert!(node_count > 0, "cannot partition zero tiles");
        let shards = self.shards.min(node_count);
        let base = node_count / shards;
        let extra = node_count % shards;
        let mut members = Vec::with_capacity(shards);
        let mut start = 0usize;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            members.push((start..(start + len)).collect());
            start += len;
        }
        debug_assert_eq!(start, node_count);
        Partition::from_members(members, CutOrientation::Rows)
    }
}

/// An assignment of tiles to shards.
#[derive(Clone, Debug)]
pub struct Partition {
    /// `assignment[node] = shard`.
    assignment: Vec<u32>,
    /// Sorted node indices of each shard.
    members: Vec<Vec<usize>>,
    /// The axis the shard boundaries run along (meaningful for mesh
    /// partitions; linear partitions report `Rows`).
    orientation: CutOrientation,
}

impl Partition {
    /// Builds a partition from explicit per-shard member lists. Every node
    /// index in `0..n` must appear exactly once across the lists.
    ///
    /// # Panics
    ///
    /// Panics if the lists do not cover a contiguous `0..n` index range
    /// exactly once.
    pub fn from_members(members: Vec<Vec<usize>>, orientation: CutOrientation) -> Self {
        let node_count: usize = members.iter().map(Vec::len).sum();
        let mut assignment = vec![u32::MAX; node_count];
        for (s, tiles) in members.iter().enumerate() {
            for &i in tiles {
                assert!(
                    i < node_count && assignment[i] == u32::MAX,
                    "partition must cover every tile exactly once"
                );
                assignment[i] = s as u32;
            }
        }
        Self {
            assignment,
            members,
            orientation,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.members.len()
    }

    /// Total number of tiles covered.
    pub fn node_count(&self) -> usize {
        self.assignment.len()
    }

    /// The axis the shard boundaries run along.
    pub fn orientation(&self) -> CutOrientation {
        self.orientation
    }

    /// The shard a tile belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the partitioned range.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.assignment[node.index()] as usize
    }

    /// The sorted node indices of one shard.
    pub fn members(&self, shard: usize) -> &[usize] {
        &self.members[shard]
    }

    /// The position of a tile within its shard's member list: its index in
    /// the shard's tile slice.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the partitioned range.
    pub fn local_index(&self, node: NodeId) -> usize {
        let members = self.members(self.shard_of(node));
        members
            .binary_search(&node.index())
            .expect("a tile is a member of its own shard")
    }

    /// All shards' member lists, in shard order.
    pub fn all_members(&self) -> &[Vec<usize>] {
        &self.members
    }

    /// The shard-to-node assignment, indexed by node.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of tiles in one shard.
    pub fn tiles(&self, shard: usize) -> usize {
        self.members[shard].len()
    }

    /// The cut set: every edge whose endpoints land in different shards,
    /// reported as normalized `(low, high)` node pairs in input order.
    /// `edges` is the undirected link list of the topology (each physical
    /// link once).
    pub fn cut_links(
        &self,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Vec<(NodeId, NodeId)> {
        edges
            .into_iter()
            .filter(|&(a, b)| self.shard_of(a) != self.shard_of(b))
            .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect()
    }

    /// The pairs of shards that share at least one cut link — the neighbor
    /// relation the slack synchronization protocol waits on.
    pub fn shard_adjacency(
        &self,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.shard_count()];
        for (a, b) in edges {
            let (sa, sb) = (self.shard_of(a), self.shard_of(b));
            if sa != sb {
                if !adj[sa].contains(&sb) {
                    adj[sa].push(sb);
                }
                if !adj[sb].contains(&sa) {
                    adj[sb].push(sa);
                }
            }
        }
        for n in &mut adj {
            n.sort_unstable();
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh_edges(w: usize, h: usize) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let id = y * w + x;
                if x + 1 < w {
                    edges.push((NodeId::from(id), NodeId::from(id + 1)));
                }
                if y + 1 < h {
                    edges.push((NodeId::from(id), NodeId::from(id + w)));
                }
            }
        }
        edges
    }

    #[test]
    fn mesh_partition_is_row_aligned_and_balanced() {
        let p = Partitioner::new(4).mesh(8, 8);
        assert_eq!(p.shard_count(), 4);
        assert_eq!(p.orientation(), CutOrientation::Rows);
        for s in 0..4 {
            assert_eq!(p.tiles(s), 16, "two rows of eight");
            assert_eq!(p.members(s)[0] % 8, 0, "row-aligned start");
            let m = p.members(s);
            assert!(m.windows(2).all(|w| w[1] == w[0] + 1), "rows contiguous");
        }
        // Three boundaries × eight links each.
        assert_eq!(p.cut_links(mesh_edges(8, 8)).len(), 24);
    }

    #[test]
    fn wide_mesh_cuts_columns_for_a_smaller_cut_set() {
        // 16×4: row cuts would cost 16 links per boundary (and allow at most
        // 4 shards); column cuts cost 4.
        let p = Partitioner::new(4).mesh(16, 4);
        assert_eq!(p.orientation(), CutOrientation::Columns);
        assert_eq!(p.shard_count(), 4);
        for s in 0..4 {
            assert_eq!(p.tiles(s), 16, "four columns of four");
        }
        let cuts = p.cut_links(mesh_edges(16, 4));
        assert_eq!(cuts.len(), 3 * 4, "three boundaries × height links");
        // The row-forced alternative pays 16 links per boundary.
        let rows = Partitioner::new(4).mesh_oriented(16, 4, CutOrientation::Rows);
        assert!(cuts.len() < rows.cut_links(mesh_edges(16, 4)).len());
    }

    #[test]
    fn tall_and_square_meshes_keep_row_cuts() {
        assert_eq!(
            Partitioner::new(2).mesh(4, 8).orientation(),
            CutOrientation::Rows
        );
        assert_eq!(
            Partitioner::new(2).mesh(8, 8).orientation(),
            CutOrientation::Rows
        );
    }

    #[test]
    fn column_members_cover_every_tile_exactly_once() {
        let p = Partitioner::new(3).mesh(9, 2);
        assert_eq!(p.orientation(), CutOrientation::Columns);
        let mut seen = [false; 18];
        for s in 0..p.shard_count() {
            for &i in p.members(s) {
                assert!(!seen[i], "tile {i} assigned twice");
                seen[i] = true;
                assert_eq!(p.shard_of(NodeId::from(i)), s);
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn uneven_rows_differ_by_at_most_one() {
        let p = Partitioner::new(3).mesh(4, 7);
        let rows: Vec<usize> = (0..3).map(|s| p.tiles(s) / 4).collect();
        assert_eq!(rows.iter().sum::<usize>(), 7);
        assert!(rows.iter().max().unwrap() - rows.iter().min().unwrap() <= 1);
    }

    #[test]
    fn shard_count_clamps_to_bands() {
        let p = Partitioner::new(64).mesh(4, 4);
        assert_eq!(p.shard_count(), 4);
        assert_eq!(p.node_count(), 16);
    }

    #[test]
    fn linear_partition_covers_everything_contiguously() {
        let p = Partitioner::new(3).linear(10);
        assert_eq!(p.shard_count(), 3);
        let sizes: Vec<usize> = (0..3).map(|s| p.tiles(s)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        let mut covered = 0;
        for s in 0..3 {
            assert_eq!(p.members(s)[0], covered, "contiguous");
            covered = p.members(s).last().unwrap() + 1;
        }
        assert_eq!(covered, 10);
    }

    #[test]
    fn cut_links_only_cross_shards() {
        let p = Partitioner::new(2).mesh(3, 4);
        let edges = mesh_edges(3, 4);
        let cuts = p.cut_links(edges.iter().copied());
        assert_eq!(cuts.len(), 3, "one boundary × three links");
        for (a, b) in cuts {
            assert_ne!(p.shard_of(a), p.shard_of(b));
        }
    }

    #[test]
    fn shard_adjacency_links_neighbouring_bands() {
        let p = Partitioner::new(4).mesh(4, 8);
        let adj = p.shard_adjacency(mesh_edges(4, 8));
        assert_eq!(adj[0], vec![1]);
        assert_eq!(adj[1], vec![0, 2]);
        assert_eq!(adj[2], vec![1, 3]);
        assert_eq!(adj[3], vec![2]);
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn duplicate_membership_panics() {
        let _ = Partition::from_members(vec![vec![0, 1], vec![1]], CutOrientation::Rows);
    }
}
