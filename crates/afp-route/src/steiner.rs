//! Obstacle-avoiding rectilinear Steiner tree (OARSMT) construction.
//!
//! Each net of the floorplanned circuit gets a rectilinear Steiner tree that
//! connects its pins while avoiding placed blocks (paper §IV-E). The tree is
//! built with the standard path-growing heuristic: starting from one terminal,
//! the nearest unconnected terminal is attached through the shortest
//! obstacle-avoiding path to the *whole* existing tree, which naturally
//! creates Steiner branch points.

use afp_circuit::{BlockId, Circuit, NetId};
use afp_layout::Floorplan;

use crate::maze::{RouteCell, RoutingGrid};

/// One rectilinear segment of a routed net, in µm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub from: (f64, f64),
    /// End point.
    pub to: (f64, f64),
}

impl Segment {
    /// Manhattan length of the segment (segments are axis-parallel).
    pub fn length(&self) -> f64 {
        (self.from.0 - self.to.0).abs() + (self.from.1 - self.to.1).abs()
    }

    /// `true` if the segment runs horizontally.
    pub fn is_horizontal(&self) -> bool {
        (self.from.1 - self.to.1).abs() < 1e-9
    }
}

/// The routed tree of one net.
#[derive(Debug, Clone, PartialEq)]
pub struct SteinerTree {
    /// The net this tree connects.
    pub net: NetId,
    /// Terminal points (pin locations) in µm.
    pub terminals: Vec<(f64, f64)>,
    /// Tree segments in µm.
    pub segments: Vec<Segment>,
    /// Whether every terminal could be connected.
    pub complete: bool,
}

impl SteinerTree {
    /// Total rectilinear wirelength of the tree.
    pub fn wirelength(&self) -> f64 {
        self.segments.iter().map(Segment::length).sum()
    }

    /// Number of bends (direction changes) in the tree, a proxy for via count.
    pub fn bend_count(&self) -> usize {
        let mut bends = 0;
        for pair in self.segments.windows(2) {
            if pair[0].is_horizontal() != pair[1].is_horizontal() {
                bends += 1;
            }
        }
        bends
    }
}

/// Pin access point of a block for a given net: the centre of the block edge
/// facing the centroid of the net's other pins — a reasonable abstraction of
/// ANAGEN's terminal export without modelling per-device pin geometry.
pub fn pin_position(circuit: &Circuit, floorplan: &Floorplan, block: BlockId, others: &[(f64, f64)]) -> Option<(f64, f64)> {
    let placed = floorplan.find(block)?;
    let rect = placed.rect;
    let (cx, cy) = rect.center();
    if others.is_empty() {
        return Some((cx, cy));
    }
    let ox = others.iter().map(|p| p.0).sum::<f64>() / others.len() as f64;
    let oy = others.iter().map(|p| p.1).sum::<f64>() / others.len() as f64;
    let dx = ox - cx;
    let dy = oy - cy;
    let _ = circuit;
    Some(if dx.abs() > dy.abs() {
        if dx > 0.0 {
            (rect.x1, cy)
        } else {
            (rect.x0, cy)
        }
    } else if dy > 0.0 {
        (cx, rect.y1)
    } else {
        (cx, rect.y0)
    })
}

/// Builds the OARSMT of one net over a routing grid.
pub fn build_tree(net: NetId, terminals: &[(f64, f64)], grid: &RoutingGrid) -> SteinerTree {
    let mut tree = SteinerTree {
        net,
        terminals: terminals.to_vec(),
        segments: Vec::new(),
        complete: terminals.len() >= 2,
    };
    if terminals.len() < 2 {
        tree.complete = terminals.len() == 1;
        return tree;
    }
    // Map terminals to grid cells (escaping blocked cells).
    let cells: Vec<Option<RouteCell>> = terminals
        .iter()
        .map(|&(x, y)| grid.nearest_free_cell(x, y))
        .collect();
    let mut connected: Vec<RouteCell> = Vec::new();
    let mut remaining: Vec<(usize, RouteCell)> = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        match c {
            Some(cell) if connected.is_empty() => connected.push(*cell),
            Some(cell) => remaining.push((i, *cell)),
            None => tree.complete = false,
        }
    }
    // Greedily attach the terminal whose shortest path to the tree is minimal.
    while !remaining.is_empty() {
        let mut best: Option<(usize, Vec<RouteCell>)> = None;
        for (pos, (_, target)) in remaining.iter().enumerate() {
            if let Some(path) = grid.shortest_path_from_set(&connected, *target) {
                if best.as_ref().is_none_or(|(_, b)| path.len() < b.len()) {
                    best = Some((pos, path));
                }
            }
        }
        match best {
            Some((pos, path)) => {
                // Convert the cell path into merged rectilinear segments.
                tree.segments.extend(path_to_segments(&path, grid));
                for cell in path {
                    if !connected.contains(&cell) {
                        connected.push(cell);
                    }
                }
                remaining.remove(pos);
            }
            None => {
                tree.complete = false;
                break;
            }
        }
    }
    // Dense packings can block nearly the whole routing grid: terminals then
    // escape to almost the same free cell and the maze paths collapse to a
    // couple of cells, or some terminal cannot be connected at all. Either
    // way the tree is not a usable global route, so fall back to direct
    // L-shaped connections along the terminals' Manhattan MST — modelling
    // over-the-block routing on upper metal layers.
    let mst = manhattan_mst(terminals);
    let mst_length: f64 = mst
        .iter()
        .map(|&(a, b)| manhattan(terminals[a], terminals[b]))
        .sum();
    if !tree.complete || tree.wirelength() + 1e-9 < 0.5 * mst_length {
        tree.segments.clear();
        for &(a, b) in &mst {
            tree.segments.extend(l_route(terminals[a], terminals[b]));
        }
        tree.complete = true;
    }
    tree
}

/// Manhattan distance between two points.
fn manhattan(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

/// Edges of the Manhattan-distance minimum spanning tree over `points`
/// (Prim's algorithm; the point sets here are tiny).
fn manhattan_mst(points: &[(f64, f64)]) -> Vec<(usize, usize)> {
    let n = points.len();
    if n < 2 {
        return Vec::new();
    }
    let mut in_tree = vec![false; n];
    let mut best_cost = vec![f64::INFINITY; n];
    let mut best_parent = vec![0usize; n];
    in_tree[0] = true;
    for i in 1..n {
        best_cost[i] = manhattan(points[0], points[i]);
    }
    let mut edges = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let next = (0..n)
            .filter(|&i| !in_tree[i])
            .min_by(|&a, &b| best_cost[a].total_cmp(&best_cost[b]))
            .expect("an unconnected point remains");
        in_tree[next] = true;
        edges.push((best_parent[next], next));
        for i in 0..n {
            if !in_tree[i] {
                let d = manhattan(points[next], points[i]);
                if d < best_cost[i] {
                    best_cost[i] = d;
                    best_parent[i] = next;
                }
            }
        }
    }
    edges
}

/// Horizontal-then-vertical rectilinear connection between two points.
fn l_route(a: (f64, f64), b: (f64, f64)) -> Vec<Segment> {
    let corner = (b.0, a.1);
    let mut segments = Vec::with_capacity(2);
    let horizontal = Segment { from: a, to: corner };
    if horizontal.length() > 1e-12 {
        segments.push(horizontal);
    }
    let vertical = Segment { from: corner, to: b };
    if vertical.length() > 1e-12 {
        segments.push(vertical);
    }
    segments
}

/// Merges a cell path into maximal horizontal / vertical segments in µm.
fn path_to_segments(path: &[RouteCell], grid: &RoutingGrid) -> Vec<Segment> {
    if path.len() < 2 {
        return Vec::new();
    }
    let mut segments = Vec::new();
    let mut run_start = grid.cell_center(path[0]);
    let mut prev = grid.cell_center(path[0]);
    let mut direction: Option<bool> = None; // true = horizontal
    for &cell in &path[1..] {
        let point = grid.cell_center(cell);
        let horizontal = (point.1 - prev.1).abs() < 1e-9;
        match direction {
            Some(d) if d == horizontal => {}
            Some(_) => {
                segments.push(Segment {
                    from: run_start,
                    to: prev,
                });
                run_start = prev;
            }
            None => {}
        }
        direction = Some(horizontal);
        prev = point;
    }
    segments.push(Segment {
        from: run_start,
        to: prev,
    });
    segments.retain(|s| s.length() > 1e-12);
    segments
}

/// Global routing of a whole circuit: one OARSMT per net with ≥ 2 placed pins.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalRouting {
    /// One tree per routed net.
    pub trees: Vec<SteinerTree>,
    /// Routing-grid resolution used.
    pub grid_resolution: usize,
}

impl GlobalRouting {
    /// Total routed wirelength in µm.
    pub fn total_wirelength(&self) -> f64 {
        self.trees.iter().map(SteinerTree::wirelength).sum()
    }

    /// Number of nets whose tree could not connect every pin.
    pub fn incomplete_nets(&self) -> usize {
        self.trees.iter().filter(|t| !t.complete).count()
    }
}

/// Routes every net of a floorplanned circuit.
pub fn global_route(circuit: &Circuit, floorplan: &Floorplan, resolution: usize) -> GlobalRouting {
    let grid = RoutingGrid::from_floorplan(floorplan, resolution, 0.15);
    let mut trees = Vec::new();
    for net in &circuit.nets {
        let blocks: Vec<BlockId> = net
            .blocks()
            .into_iter()
            .filter(|b| floorplan.is_placed(*b))
            .collect();
        if blocks.len() < 2 {
            continue;
        }
        let centers: Vec<(f64, f64)> = blocks
            .iter()
            .filter_map(|&b| floorplan.block_center(b))
            .collect();
        let terminals: Vec<(f64, f64)> = blocks
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| {
                let others: Vec<(f64, f64)> = centers
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, &p)| p)
                    .collect();
                pin_position(circuit, floorplan, b, &others)
            })
            .collect();
        trees.push(build_tree(net.id, &terminals, &grid));
    }
    GlobalRouting {
        trees,
        grid_resolution: resolution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::{generators, Shape};
    use afp_layout::{Canvas, Cell};

    fn routed_ota() -> (Circuit, Floorplan, GlobalRouting) {
        let circuit = generators::ota3();
        let mut fp = Floorplan::new(Canvas::for_circuit(&circuit));
        let order = circuit.blocks_by_decreasing_area();
        let mut x = 0usize;
        for id in order {
            let area = circuit.block(id).unwrap().area_um2;
            let shape = Shape::from_area_and_aspect(area, 1.0);
            fp.place(id, 0, shape, Cell::new(x, 0)).unwrap();
            let (gw, _) = fp.grid_footprint(&shape);
            x += gw + 1;
        }
        let routing = global_route(&circuit, &fp, 48);
        (circuit, fp, routing)
    }

    #[test]
    fn non_finite_terminals_do_not_panic_the_spanning_tree() {
        let points = [
            (0.0, 0.0),
            (f64::INFINITY, 1.0),
            (f64::NAN, 2.0),
            (3.0, 4.0),
        ];
        assert_eq!(manhattan_mst(&points).len(), points.len() - 1);
    }

    #[test]
    fn every_multi_pin_net_gets_a_tree() {
        let (circuit, _, routing) = routed_ota();
        assert_eq!(routing.trees.len(), circuit.num_nets());
        assert_eq!(routing.incomplete_nets(), 0);
        assert!(routing.total_wirelength() > 0.0);
    }

    #[test]
    fn segments_are_rectilinear() {
        let (_, _, routing) = routed_ota();
        for tree in &routing.trees {
            for s in &tree.segments {
                let dx = (s.from.0 - s.to.0).abs();
                let dy = (s.from.1 - s.to.1).abs();
                assert!(dx < 1e-9 || dy < 1e-9, "segment is not axis-parallel");
            }
        }
    }

    #[test]
    fn tree_wirelength_at_least_hpwl_of_terminals() {
        let (_, _, routing) = routed_ota();
        for tree in &routing.trees {
            if tree.terminals.len() < 2 {
                continue;
            }
            let min_x = tree.terminals.iter().map(|p| p.0).fold(f64::MAX, f64::min);
            let max_x = tree.terminals.iter().map(|p| p.0).fold(f64::MIN, f64::max);
            let min_y = tree.terminals.iter().map(|p| p.1).fold(f64::MAX, f64::min);
            let max_y = tree.terminals.iter().map(|p| p.1).fold(f64::MIN, f64::max);
            let hpwl = (max_x - min_x) + (max_y - min_y);
            // Allow a one-grid-cell slack from terminal snapping.
            assert!(
                tree.wirelength() + 2.0 * 1.0 >= hpwl * 0.5,
                "tree shorter than half its HPWL"
            );
        }
    }

    #[test]
    fn trees_avoid_third_party_blocks() {
        // Two connected blocks on either side of an obstacle: the path must
        // not cross the obstacle interior.
        use afp_circuit::{BlockKind, NetClass};
        let circuit = Circuit::builder("detour")
            .block("A", BlockKind::CurrentMirror, 16.0, 2)
            .block("B", BlockKind::CurrentMirror, 16.0, 2)
            .block("OBS", BlockKind::CapacitorBank, 64.0, 2)
            .net("ab", &[("A", "d"), ("B", "d")], NetClass::Signal)
            .net("power", &[("OBS", "a"), ("A", "vdd")], NetClass::Power)
            .build()
            .unwrap();
        let mut fp = Floorplan::new(Canvas::new(32.0, 32.0));
        fp.place(afp_circuit::BlockId(0), 0, Shape::new(4.0, 4.0), Cell::new(0, 8)).unwrap();
        fp.place(afp_circuit::BlockId(2), 0, Shape::new(8.0, 8.0), Cell::new(8, 6)).unwrap();
        fp.place(afp_circuit::BlockId(1), 0, Shape::new(4.0, 4.0), Cell::new(20, 8)).unwrap();
        let routing = global_route(&circuit, &fp, 64);
        let ab_tree = routing.trees.iter().find(|t| t.net == circuit.nets[0].id).unwrap();
        assert!(ab_tree.complete);
        let obstacle = fp.find(afp_circuit::BlockId(2)).unwrap().rect.inflated(-0.4);
        for s in &ab_tree.segments {
            let mid = ((s.from.0 + s.to.0) / 2.0, (s.from.1 + s.to.1) / 2.0);
            assert!(
                !obstacle.contains_point(mid.0, mid.1),
                "segment midpoint {mid:?} crosses the obstacle"
            );
        }
    }

    #[test]
    fn single_pin_nets_are_skipped() {
        let (circuit, fp, _) = routed_ota();
        // Route with only one block placed: no trees.
        let mut partial = Floorplan::new(*fp.canvas());
        let first = circuit.blocks_by_decreasing_area()[0];
        partial
            .place(first, 0, Shape::from_area_and_aspect(circuit.block(first).unwrap().area_um2, 1.0), Cell::new(0, 0))
            .unwrap();
        let routing = global_route(&circuit, &partial, 32);
        assert!(routing.trees.is_empty());
    }

    #[test]
    fn bend_count_counts_direction_changes() {
        let tree = SteinerTree {
            net: NetId(0),
            terminals: vec![(0.0, 0.0), (2.0, 2.0)],
            segments: vec![
                Segment { from: (0.0, 0.0), to: (2.0, 0.0) },
                Segment { from: (2.0, 0.0), to: (2.0, 2.0) },
            ],
            complete: true,
        };
        assert_eq!(tree.bend_count(), 1);
        assert_eq!(tree.wirelength(), 4.0);
    }
}
