//! Positional constraints: symmetry and alignment groups.
//!
//! The paper's floorplanner enforces two families of analog layout
//! constraints (paper §IV-A, §IV-D1): *symmetry* of matched blocks about a
//! horizontal or vertical axis, and *alignment* of blocks along a shared row
//! or column. Constraint satisfaction is encoded in the positional action
//! masks, and any residual violation in a finished floorplan triggers the
//! −50 penalty of §IV-D4.

use crate::block::BlockId;

/// Orientation of a symmetry axis or alignment direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// A horizontal axis (symmetry about a horizontal line; alignment along a
    /// row — equal y coordinates).
    Horizontal,
    /// A vertical axis (symmetry about a vertical line; alignment along a
    /// column — equal x coordinates).
    Vertical,
}

impl Axis {
    /// The other axis.
    pub fn orthogonal(self) -> Axis {
        match self {
            Axis::Horizontal => Axis::Vertical,
            Axis::Vertical => Axis::Horizontal,
        }
    }
}

/// A symmetry constraint: pairs of blocks mirrored about a common axis, plus
/// optional self-symmetric blocks centred on that axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryGroup {
    /// Orientation of the symmetry axis.
    pub axis: Axis,
    /// Mirrored block pairs.
    pub pairs: Vec<(BlockId, BlockId)>,
    /// Blocks placed on the axis itself (e.g. a shared tail current source).
    pub self_symmetric: Vec<BlockId>,
}

impl SymmetryGroup {
    /// Creates a symmetry group about the given axis.
    pub fn new(axis: Axis) -> Self {
        SymmetryGroup {
            axis,
            pairs: Vec::new(),
            self_symmetric: Vec::new(),
        }
    }

    /// Adds a mirrored pair (builder-style).
    pub fn with_pair(mut self, a: BlockId, b: BlockId) -> Self {
        self.pairs.push((a, b));
        self
    }

    /// Adds a self-symmetric block (builder-style).
    pub fn with_self_symmetric(mut self, b: BlockId) -> Self {
        self.self_symmetric.push(b);
        self
    }

    /// All blocks referenced by this group.
    pub fn members(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        for &(a, b) in &self.pairs {
            out.push(a);
            out.push(b);
        }
        out.extend(self.self_symmetric.iter().copied());
        out
    }

    /// Returns `true` if the group references no blocks.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty() && self.self_symmetric.is_empty()
    }
}

/// An alignment constraint: all member blocks share a row (horizontal) or a
/// column (vertical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignmentGroup {
    /// Alignment direction.
    pub axis: Axis,
    /// Aligned blocks.
    pub blocks: Vec<BlockId>,
}

impl AlignmentGroup {
    /// Creates an alignment group.
    pub fn new(axis: Axis, blocks: Vec<BlockId>) -> Self {
        AlignmentGroup { axis, blocks }
    }
}

/// A single positional constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// Mirror-symmetric placement of matched blocks.
    Symmetry(SymmetryGroup),
    /// Row / column alignment of blocks.
    Alignment(AlignmentGroup),
}

impl Constraint {
    /// All blocks referenced by the constraint.
    pub fn members(&self) -> Vec<BlockId> {
        match self {
            Constraint::Symmetry(s) => s.members(),
            Constraint::Alignment(a) => a.blocks.clone(),
        }
    }

    /// Axis of the constraint.
    pub fn axis(&self) -> Axis {
        match self {
            Constraint::Symmetry(s) => s.axis,
            Constraint::Alignment(a) => a.axis,
        }
    }

    /// Returns `true` for symmetry constraints.
    pub fn is_symmetry(&self) -> bool {
        matches!(self, Constraint::Symmetry(_))
    }
}

/// The full set of constraints attached to a circuit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// Creates an empty constraint set.
    pub fn new() -> Self {
        ConstraintSet {
            constraints: Vec::new(),
        }
    }

    /// Adds a constraint.
    pub fn push(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Returns `true` if there are no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Iterates over the constraints.
    pub fn iter(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter()
    }

    /// Constraints that involve the given block.
    pub fn involving(&self, block: BlockId) -> Vec<&Constraint> {
        self.constraints
            .iter()
            .filter(|c| c.members().contains(&block))
            .collect()
    }

    /// The symmetry partner of `block` in any symmetry constraint, if one
    /// exists.
    pub fn symmetry_partner(&self, block: BlockId) -> Option<(BlockId, Axis)> {
        for c in &self.constraints {
            if let Constraint::Symmetry(group) = c {
                for &(a, b) in &group.pairs {
                    if a == block {
                        return Some((b, group.axis));
                    }
                    if b == block {
                        return Some((a, group.axis));
                    }
                }
            }
        }
        None
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = Constraint>>(iter: T) -> Self {
        ConstraintSet {
            constraints: iter.into_iter().collect(),
        }
    }
}

impl Extend<Constraint> for ConstraintSet {
    fn extend<T: IntoIterator<Item = Constraint>>(&mut self, iter: T) {
        self.constraints.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(a: usize, b: usize) -> Constraint {
        Constraint::Symmetry(SymmetryGroup::new(Axis::Vertical).with_pair(BlockId(a), BlockId(b)))
    }

    #[test]
    fn axis_orthogonal() {
        assert_eq!(Axis::Horizontal.orthogonal(), Axis::Vertical);
        assert_eq!(Axis::Vertical.orthogonal(), Axis::Horizontal);
    }

    #[test]
    fn members_of_symmetry_group() {
        let g = SymmetryGroup::new(Axis::Vertical)
            .with_pair(BlockId(0), BlockId(1))
            .with_self_symmetric(BlockId(2));
        assert_eq!(g.members(), vec![BlockId(0), BlockId(1), BlockId(2)]);
        assert!(!g.is_empty());
    }

    #[test]
    fn constraint_set_queries() {
        let set: ConstraintSet = vec![
            sym(0, 1),
            Constraint::Alignment(AlignmentGroup::new(
                Axis::Horizontal,
                vec![BlockId(2), BlockId(3)],
            )),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 2);
        assert_eq!(set.involving(BlockId(0)).len(), 1);
        assert_eq!(set.involving(BlockId(2)).len(), 1);
        assert!(set.involving(BlockId(9)).is_empty());
    }

    #[test]
    fn symmetry_partner_lookup_is_bidirectional() {
        let set: ConstraintSet = vec![sym(0, 1)].into_iter().collect();
        assert_eq!(
            set.symmetry_partner(BlockId(0)),
            Some((BlockId(1), Axis::Vertical))
        );
        assert_eq!(
            set.symmetry_partner(BlockId(1)),
            Some((BlockId(0), Axis::Vertical))
        );
        assert_eq!(set.symmetry_partner(BlockId(2)), None);
    }

    #[test]
    fn extend_appends() {
        let mut set = ConstraintSet::new();
        set.extend(vec![sym(0, 1)]);
        assert_eq!(set.len(), 1);
        assert!(set.iter().next().unwrap().is_symmetry());
    }
}
