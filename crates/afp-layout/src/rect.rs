//! Axis-aligned rectangles in micrometre coordinates.

/// An axis-aligned rectangle `[x0, x1) × [y0, y1)` in µm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x0: f64,
    /// Bottom edge.
    pub y0: f64,
    /// Right edge.
    pub x1: f64,
    /// Top edge.
    pub y1: f64,
}

impl Rect {
    /// Creates a rectangle from its lower-left corner and size.
    pub fn from_origin_size(x0: f64, y0: f64, width: f64, height: f64) -> Self {
        Rect {
            x0,
            y0,
            x1: x0 + width,
            y1: y0 + height,
        }
    }

    /// Creates a rectangle from two corners (order-insensitive).
    pub fn from_corners(xa: f64, ya: f64, xb: f64, yb: f64) -> Self {
        Rect {
            x0: xa.min(xb),
            y0: ya.min(yb),
            x1: xa.max(xb),
            y1: ya.max(yb),
        }
    }

    /// Width of the rectangle.
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Height of the rectangle.
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// Area of the rectangle.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    pub fn center(&self) -> (f64, f64) {
        ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)
    }

    /// Aspect ratio (width / height).
    pub fn aspect(&self) -> f64 {
        self.width() / self.height().max(1e-12)
    }

    /// Returns `true` if the two rectangles overlap with positive area.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// Returns `true` if `other` lies completely inside `self` (touching edges
    /// allowed).
    pub fn contains(&self, other: &Rect) -> bool {
        self.x0 <= other.x0 && self.y0 <= other.y0 && self.x1 >= other.x1 && self.y1 >= other.y1
    }

    /// Returns `true` if the point lies inside the rectangle.
    pub fn contains_point(&self, x: f64, y: f64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// The smallest rectangle containing both operands.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// The bounding box of a non-empty set of rectangles, or `None` if the
    /// iterator is empty.
    pub fn bounding_box<'a, I: IntoIterator<Item = &'a Rect>>(rects: I) -> Option<Rect> {
        let mut iter = rects.into_iter();
        let first = *iter.next()?;
        Some(iter.fold(first, |acc, r| acc.union(r)))
    }

    /// The rectangle grown by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> Rect {
        Rect {
            x0: self.x0 - margin,
            y0: self.y0 - margin,
            x1: self.x1 + margin,
            y1: self.y1 + margin,
        }
    }

    /// Half-perimeter of the rectangle.
    pub fn half_perimeter(&self) -> f64 {
        self.width() + self.height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_basics() {
        let r = Rect::from_origin_size(1.0, 2.0, 3.0, 4.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.center(), (2.5, 4.0));
        assert_eq!(r.half_perimeter(), 7.0);
    }

    #[test]
    fn overlap_detection() {
        let a = Rect::from_origin_size(0.0, 0.0, 2.0, 2.0);
        let b = Rect::from_origin_size(1.0, 1.0, 2.0, 2.0);
        let c = Rect::from_origin_size(2.0, 0.0, 2.0, 2.0);
        assert!(a.overlaps(&b));
        // Touching edges do not overlap.
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn containment() {
        let outer = Rect::from_origin_size(0.0, 0.0, 10.0, 10.0);
        let inner = Rect::from_origin_size(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains_point(5.0, 5.0));
        assert!(!outer.contains_point(10.0, 5.0));
    }

    #[test]
    fn union_and_bounding_box() {
        let a = Rect::from_origin_size(0.0, 0.0, 1.0, 1.0);
        let b = Rect::from_origin_size(4.0, 5.0, 1.0, 1.0);
        let u = a.union(&b);
        assert_eq!(u, Rect::from_corners(0.0, 0.0, 5.0, 6.0));
        assert_eq!(Rect::bounding_box([&a, &b]), Some(u));
        assert_eq!(Rect::bounding_box(std::iter::empty()), None);
    }

    #[test]
    fn inflate_grows_symmetrically() {
        let r = Rect::from_origin_size(1.0, 1.0, 2.0, 2.0).inflated(0.5);
        assert_eq!(r, Rect::from_corners(0.5, 0.5, 3.5, 3.5));
    }

    #[test]
    fn corners_constructor_is_order_insensitive() {
        let a = Rect::from_corners(3.0, 4.0, 1.0, 2.0);
        assert_eq!(a, Rect::from_corners(1.0, 2.0, 3.0, 4.0));
    }
}
