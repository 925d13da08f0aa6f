#ifndef NWC_GEOMETRY_RECT_H_
#define NWC_GEOMETRY_RECT_H_

#include <algorithm>
#include <cmath>
#include <ostream>

#include "geometry/point.h"

namespace nwc {

/// An axis-aligned rectangle [min_x, max_x] x [min_y, max_y], used both as
/// the MBR of R*-tree entries and as query windows / search regions.
///
/// A Rect is *valid* when min <= max on both axes. The canonical empty
/// rectangle (from Rect::Empty()) has inverted infinite bounds so that
/// Expand() of an empty rect by a point/rect yields that point/rect.
struct Rect {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  /// The canonical empty rectangle (identity element for Expand).
  static Rect Empty();

  /// Rectangle covering exactly one point.
  static Rect FromPoint(const Point& p);

  /// Rectangle from two opposite corners, in any order.
  static Rect FromCorners(const Point& a, const Point& b);

  /// Window of length `l` (x-extent) and width `w` (y-extent) whose
  /// bottom-left corner is `origin`. Matches the paper's (l, w) convention.
  static Rect Window(const Point& origin, double l, double w);

  /// True when this rect is the canonical empty rect or otherwise inverted.
  bool IsEmpty() const { return min_x > max_x || min_y > max_y; }

  double length() const { return max_x - min_x; }  ///< x-extent (paper's l).
  double width() const { return max_y - min_y; }   ///< y-extent (paper's w).

  /// Area; 0 for degenerate (point/segment) rects. Empty rects yield 0.
  double Area() const;

  /// Half-perimeter (the R*-tree "margin" used by the split heuristic).
  double Margin() const;

  /// Center point of the rectangle.
  Point Center() const;

  /// True when `p` lies inside or on the boundary.
  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  /// True when `other` lies entirely inside or on the boundary of this rect.
  bool Contains(const Rect& other) const {
    if (other.IsEmpty()) return true;
    return other.min_x >= min_x && other.max_x <= max_x && other.min_y >= min_y &&
           other.max_y <= max_y;
  }

  /// True when the two rects share at least a boundary point. Inline: the
  /// window walks and IWP probes test it for every child entry they see.
  bool Intersects(const Rect& other) const {
    if (IsEmpty() || other.IsEmpty()) return false;
    return min_x <= other.max_x && other.min_x <= max_x && min_y <= other.max_y &&
           other.min_y <= max_y;
  }

  /// Grows this rect to cover `p`.
  void Expand(const Point& p);

  /// Grows this rect to cover `other` (no-op when `other` is empty).
  void Expand(const Rect& other);

  /// Returns the union MBR of the two rects.
  static Rect Union(const Rect& a, const Rect& b);

  /// Returns the intersection, or an empty rect when disjoint.
  static Rect Intersection(const Rect& a, const Rect& b);

  /// Area of overlap with `other` (0 when disjoint).
  double OverlapArea(const Rect& other) const;

  /// Area increase needed for this rect to cover `other`.
  double EnlargementArea(const Rect& other) const;

  /// Returns this rect grown by `dx` on both x sides and `dy` on both y
  /// sides (negative values shrink; the result may become empty).
  Rect Inflated(double dx, double dy) const;

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.min_x == b.min_x && a.min_y == b.min_y && a.max_x == b.max_x && a.max_y == b.max_y;
  }
  friend bool operator!=(const Rect& a, const Rect& b) { return !(a == b); }
};

/// MINDIST(q, r): Euclidean distance from `q` to the nearest point of `r`
/// (0 when `q` is inside). This is the lower bound that drives best-first
/// traversal and all of the paper's pruning rules.
double MinDist(const Point& q, const Rect& r);

/// Squared MINDIST; cheaper for ordering comparisons.
double SquaredMinDist(const Point& q, const Rect& r);

/// MAXDIST(q, r): distance from `q` to the farthest point of `r`.
double MaxDist(const Point& q, const Rect& r);

std::ostream& operator<<(std::ostream& os, const Rect& r);

}  // namespace nwc

#endif  // NWC_GEOMETRY_RECT_H_
