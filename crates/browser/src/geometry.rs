//! 2-D geometry primitives (page coordinates, CSS pixels).

/// A point in page coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (CSS px).
    pub x: f64,
    /// Vertical coordinate (CSS px, grows downward).
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance_to(&self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Linear interpolation: `self` at t=0, `other` at t=1.
    pub fn lerp(&self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

/// An axis-aligned rectangle in page coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Left edge.
    pub x: f64,
    /// Top edge.
    pub y: f64,
    /// Width (px).
    pub width: f64,
    /// Height (px).
    pub height: f64,
}

impl Rect {
    /// Creates a rectangle.
    pub const fn new(x: f64, y: f64, width: f64, height: f64) -> Self {
        Self {
            x,
            y,
            width,
            height,
        }
    }

    /// Centre point.
    pub fn center(&self) -> Point {
        Point::new(self.x + self.width / 2.0, self.y + self.height / 2.0)
    }

    /// True when the point lies inside (edges inclusive on top/left,
    /// exclusive on bottom/right, CSS hit-testing convention).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x && p.x < self.x + self.width && p.y >= self.y && p.y < self.y + self.height
    }

    /// The point at a relative offset from the top-left corner.
    pub fn offset(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_lerp() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
        let mid = a.lerp(b, 0.5);
        assert_eq!(mid, Point::new(1.5, 2.0));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn rect_center_and_contains() {
        let r = Rect::new(10.0, 20.0, 100.0, 40.0);
        assert_eq!(r.center(), Point::new(60.0, 40.0));
        assert!(r.contains(Point::new(10.0, 20.0)));
        assert!(r.contains(Point::new(109.9, 59.9)));
        assert!(!r.contains(Point::new(110.0, 40.0)));
        assert!(!r.contains(Point::new(60.0, 60.0)));
    }

    #[test]
    fn rect_offset_is_from_top_left() {
        let r = Rect::new(10.0, 20.0, 100.0, 40.0);
        assert_eq!(r.offset(1.0, 2.0), Point::new(11.0, 22.0));
    }
}
