//! Randomized property tests over the workspace's core invariants
//! (`DESIGN.md` §6).
//!
//! The workspace builds with no external dependencies, so instead of a
//! property-testing framework these run each property over a few hundred
//! cases drawn from a seeded [`SplitMix64`] — deterministic run to run,
//! with the failing case's inputs printed by the assertion messages.

use cafemio::cards::{Field, Format, FormatReader, FormatWriter};
use cafemio::geom::{Arc, Point, Segment, Triangle};
use cafemio::idlz::reform_elements;
use cafemio::mesh::{cuthill_mckee, BoundaryKind, NodalField, TriMesh};
use cafemio::ospl::{automatic_interval, contour_levels, extract_isograms};
use cafemio_bench::mutate::SplitMix64;

/// Uniform integer in `[lo, hi]`.
fn i64_in(rng: &mut SplitMix64, lo: i64, hi: i64) -> i64 {
    let span = (hi - lo + 1) as u64;
    lo + (rng.next_u64() % span) as i64
}

fn usize_in(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    i64_in(rng, lo as i64, hi as i64) as usize
}

fn coin(rng: &mut SplitMix64) -> bool {
    rng.next_u64() & 1 == 1
}

fn vec_f64(rng: &mut SplitMix64, lo: f64, hi: f64, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.f64_in(lo, hi)).collect()
}

// ---------------------------------------------------------------------
// Card formats
// ---------------------------------------------------------------------

/// Iw fields round-trip any integer that fits the width.
#[test]
fn integer_fields_round_trip() {
    let mut rng = SplitMix64::new(0x1d1);
    let format: Format = "(I5)".parse().unwrap();
    for _ in 0..128 {
        let v = i64_in(&mut rng, -9999, 9999);
        let record = FormatWriter::new(&format)
            .write_record(&[Field::Int(v)])
            .unwrap();
        let back = FormatReader::new(&format).read_record(&record).unwrap();
        assert_eq!(back[0], Field::Int(v));
    }
}

/// Fw.d fields round-trip to within half a unit in the last place.
#[test]
fn fixed_fields_round_trip() {
    let mut rng = SplitMix64::new(0x1d2);
    let format: Format = "(F9.4)".parse().unwrap();
    for _ in 0..128 {
        let v = rng.f64_in(-99.0, 99.0);
        let record = FormatWriter::new(&format)
            .write_record(&[Field::Real(v)])
            .unwrap();
        let back = FormatReader::new(&format).read_record(&record).unwrap();
        let got = back[0].as_f64().unwrap();
        assert!((got - v).abs() <= 0.5e-4, "{v} -> {got}");
    }
}

/// Ew.d fields round-trip within the mantissa precision.
#[test]
fn exponential_fields_round_trip() {
    let mut rng = SplitMix64::new(0x1d3);
    let format: Format = "(E15.7)".parse().unwrap();
    for _ in 0..128 {
        let m = rng.f64_in(0.1, 1.0);
        let e = i64_in(&mut rng, -12, 11) as i32;
        let v = if coin(&mut rng) { -m } else { m } * 10f64.powi(e);
        let record = FormatWriter::new(&format)
            .write_record(&[Field::Real(v)])
            .unwrap();
        let back = FormatReader::new(&format).read_record(&record).unwrap();
        let got = back[0].as_f64().unwrap();
        assert!((got - v).abs() <= 1e-6 * v.abs().max(1e-300), "{v} -> {got}");
    }
}

/// Multi-record format reuse never loses or reorders values.
#[test]
fn format_reuse_preserves_order() {
    let mut rng = SplitMix64::new(0x1d4);
    let format: Format = "(4I4)".parse().unwrap();
    for _ in 0..128 {
        let values: Vec<i64> = (0..usize_in(&mut rng, 1, 29))
            .map(|_| i64_in(&mut rng, -999, 999))
            .collect();
        let fields: Vec<Field> = values.iter().map(|&v| Field::Int(v)).collect();
        let records = FormatWriter::new(&format).write_all(&fields).unwrap();
        let mut back = Vec::new();
        let reader = FormatReader::new(&format);
        for record in &records {
            back.extend(reader.read_record(record).unwrap());
        }
        // Short final records read trailing blanks as zeros; compare the
        // prefix.
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(back[i].as_i64().unwrap(), v);
        }
    }
}

// ---------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------

/// Arc construction: every subdivided point lies on the circle and
/// consecutive points subtend equal chords.
#[test]
fn arc_points_on_circle() {
    let mut rng = SplitMix64::new(0x2e1);
    for _ in 0..128 {
        let x0 = rng.f64_in(-10.0, 10.0);
        let y0 = rng.f64_in(-10.0, 10.0);
        let angle = rng.f64_in(0.1, 1.4);
        let radius = rng.f64_in(0.5, 20.0);
        let n = usize_in(&mut rng, 2, 11);
        let start = Point::new(x0 + radius, y0);
        let end = Point::new(x0 + radius * angle.cos(), y0 + radius * angle.sin());
        let arc = Arc::from_endpoints_radius(start, end, radius).unwrap();
        let pts = arc.subdivide(n);
        let center = arc.center();
        let chord = pts[0].distance_to(pts[1]);
        for w in pts.windows(2) {
            assert!((w[0].distance_to(center) - radius).abs() < 1e-9);
            assert!((w[0].distance_to(w[1]) - chord).abs() < 1e-9);
        }
    }
}

/// Segment subdivision: even spacing, exact end points.
#[test]
fn segment_subdivision_even() {
    let mut rng = SplitMix64::new(0x2e2);
    for _ in 0..128 {
        let (ax, ay) = (rng.f64_in(-5.0, 5.0), rng.f64_in(-5.0, 5.0));
        let (bx, by) = (rng.f64_in(-5.0, 5.0), rng.f64_in(-5.0, 5.0));
        let n = usize_in(&mut rng, 1, 19);
        if (ax - bx).abs() + (ay - by).abs() <= 1e-6 {
            continue;
        }
        let s = Segment::new(Point::new(ax, ay), Point::new(bx, by));
        let pts = s.subdivide(n);
        assert_eq!(pts.len(), n + 1);
        let step = s.length() / n as f64;
        for w in pts.windows(2) {
            assert!((w[0].distance_to(w[1]) - step).abs() < 1e-9);
        }
    }
}

/// Triangle angles always sum to π; barycentric coordinates reconstruct
/// the query point.
#[test]
fn triangle_invariants() {
    let mut rng = SplitMix64::new(0x2e3);
    for _ in 0..128 {
        let t = Triangle::new(
            Point::new(rng.f64_in(-5.0, 5.0), rng.f64_in(-5.0, 5.0)),
            Point::new(rng.f64_in(-5.0, 5.0), rng.f64_in(-5.0, 5.0)),
            Point::new(rng.f64_in(-5.0, 5.0), rng.f64_in(-5.0, 5.0)),
        );
        let wa = rng.f64_in(0.05, 0.9);
        if t.area() <= 1e-3 {
            continue;
        }
        let sum: f64 = t.angles().iter().sum();
        assert!((sum - std::f64::consts::PI).abs() < 1e-9);
        let wb = (1.0 - wa) * 0.6;
        let wc = 1.0 - wa - wb;
        let [a, b, c] = t.vertices;
        let p = Point::new(
            wa * a.x + wb * b.x + wc * c.x,
            wa * a.y + wb * b.y + wc * c.y,
        );
        let w = t.barycentric(p).unwrap();
        assert!((w[0] - wa).abs() < 1e-9);
        assert!((w[1] - wb).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------
// Contour spacing (Appendix D)
// ---------------------------------------------------------------------

/// The automatic interval is always a base × power of ten, and the
/// resulting contour count stays in the hand-plot sweet spot.
#[test]
fn automatic_interval_properties() {
    let mut rng = SplitMix64::new(0x3f1);
    for _ in 0..256 {
        let lo = rng.f64_in(-1.0e6, 1.0e6);
        let span = rng.f64_in(1e-3, 1.0e6);
        let hi = lo + span;
        let interval = automatic_interval(lo, hi).unwrap();
        let mantissa = interval / 10f64.powf(interval.log10().floor());
        assert!(
            [1.0, 2.5, 5.0].iter().any(|b| (mantissa - b).abs() < 1e-9),
            "interval {interval} mantissa {mantissa}"
        );
        // About 5 % spacing. The candidate series {1, 2.5, 5}×10^k has
        // its widest relative gap between 1 and 2.5 (a 2.5× step whose
        // midpoint is 1.75), so the closest-to-5% rule bounds the contour
        // count to [20/ (2.5/1.75), 20·1.75] = [14, 35] across the range.
        let count = span / interval;
        assert!((13.9..35.1).contains(&count), "count {count}");
    }
}

/// Contour levels are ascending multiples of the interval, all within
/// range.
#[test]
fn contour_levels_properties() {
    let mut rng = SplitMix64::new(0x3f2);
    for _ in 0..256 {
        let lo = rng.f64_in(-1000.0, 1000.0);
        let span = rng.f64_in(0.5, 500.0);
        let hi = lo + span;
        let interval = automatic_interval(lo, hi).unwrap();
        let levels = contour_levels(lo, hi, interval);
        assert!(!levels.is_empty());
        for w in levels.windows(2) {
            assert!((w[1] - w[0] - interval).abs() < 1e-9 * interval.max(1.0));
        }
        assert!(levels[0] >= lo - 1e-9 * span);
        assert!(*levels.last().unwrap() <= hi + 1e-9 * span);
    }
}

// ---------------------------------------------------------------------
// Mesh algorithms
// ---------------------------------------------------------------------

/// A jittered strip mesh, the staple random workload.
fn strip_mesh(cells: usize, jitter: &[f64]) -> TriMesh {
    let mut mesh = TriMesh::new();
    let mut ids = Vec::new();
    let mut k = 0;
    for j in 0..=1 {
        for i in 0..=cells {
            let dx = jitter.get(k).copied().unwrap_or(0.0) * 0.2;
            let dy = jitter.get(k + 1).copied().unwrap_or(0.0) * 0.2;
            k += 2;
            ids.push(mesh.add_node(
                Point::new(i as f64 + dx, j as f64 + dy),
                BoundaryKind::Boundary,
            ));
        }
    }
    let at = |i: usize, j: usize| ids[j * (cells + 1) + i];
    for i in 0..cells {
        mesh.add_element([at(i, 0), at(i + 1, 0), at(i + 1, 1)]).unwrap();
        mesh.add_element([at(i, 0), at(i + 1, 1), at(i, 1)]).unwrap();
    }
    mesh
}

/// Cuthill–McKee always yields a valid permutation and never loses
/// connectivity.
#[test]
fn cuthill_mckee_is_a_permutation() {
    let mut rng = SplitMix64::new(0x4a1);
    for _ in 0..64 {
        let cells = usize_in(&mut rng, 2, 19);
        let n = usize_in(&mut rng, 0, 79);
        let jitter = vec_f64(&mut rng, -1.0, 1.0, n);
        let mesh = strip_mesh(cells, &jitter);
        let perm = cuthill_mckee(&mesh);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..mesh.node_count()).collect::<Vec<_>>());
        let mut renumbered = mesh.clone();
        renumbered.renumber_nodes(&perm);
        assert_eq!(renumbered.element_count(), mesh.element_count());
        assert!((renumbered.total_area() - mesh.total_area()).abs() < 1e-9);
        assert_eq!(renumbered.boundary_edges().len(), mesh.boundary_edges().len());
    }
}

/// Reforming never shrinks the minimum angle, never changes area, node
/// positions, or the boundary.
#[test]
fn reform_invariants() {
    let mut rng = SplitMix64::new(0x4a2);
    for _ in 0..64 {
        let cells = usize_in(&mut rng, 2, 14);
        let n = usize_in(&mut rng, 0, 63);
        let jitter = vec_f64(&mut rng, -1.0, 1.0, n);
        let mut mesh = strip_mesh(cells, &jitter);
        if mesh.validate().is_err() {
            continue;
        }
        let area = mesh.total_area();
        let min_angle = mesh.quality().min_angle;
        let boundary = mesh.boundary_edges();
        let report = reform_elements(&mut mesh, 20);
        assert!(report.min_angle_after >= min_angle - 1e-12);
        assert!((mesh.total_area() - area).abs() < 1e-9 * area);
        assert_eq!(mesh.boundary_edges(), boundary);
        assert!(mesh.validate().is_ok());
    }
}

/// Uniform refinement preserves area, boundary length, and the mesh
/// minimum angle, and exactly quadruples the element count.
#[test]
fn refinement_invariants() {
    let mut rng = SplitMix64::new(0x4a3);
    for _ in 0..64 {
        let cells = usize_in(&mut rng, 2, 9);
        let n = usize_in(&mut rng, 0, 47);
        let jitter = vec_f64(&mut rng, -1.0, 1.0, n);
        let coarse = strip_mesh(cells, &jitter);
        if coarse.validate().is_err() {
            continue;
        }
        let fine = coarse.refined();
        assert!(fine.validate().is_ok());
        assert_eq!(fine.element_count(), 4 * coarse.element_count());
        assert!((fine.total_area() - coarse.total_area()).abs() < 1e-9);
        assert!((fine.quality().min_angle - coarse.quality().min_angle).abs() < 1e-9);
        let outline = |m: &TriMesh| -> f64 {
            m.boundary_edges()
                .iter()
                .map(|e| m.node(e.0).position.distance_to(m.node(e.1).position))
                .sum()
        };
        assert!((outline(&fine) - outline(&coarse)).abs() < 1e-9);
    }
}

/// Doubling a mesh (all nodes duplicated) and merging restores the
/// original node count and total area exactly.
#[test]
fn merge_undoes_duplication() {
    let mut rng = SplitMix64::new(0x4a4);
    for _ in 0..64 {
        let cells = usize_in(&mut rng, 2, 9);
        let n = usize_in(&mut rng, 0, 47);
        let jitter = vec_f64(&mut rng, -1.0, 1.0, n);
        let base = strip_mesh(cells, &jitter);
        if base.validate().is_err() {
            continue;
        }
        // Rebuild with every node stored twice; elements alternate
        // between the two copies.
        let mut doubled = TriMesh::new();
        let mut first = Vec::new();
        let mut second = Vec::new();
        for (_, node) in base.nodes() {
            first.push(doubled.add_node(node.position, node.boundary));
        }
        for (_, node) in base.nodes() {
            second.push(doubled.add_node(node.position, node.boundary));
        }
        for (i, (_, el)) in base.elements().enumerate() {
            let pick = |n: cafemio::mesh::NodeId| {
                if i % 2 == 0 {
                    first[n.index()]
                } else {
                    second[n.index()]
                }
            };
            doubled
                .add_element([pick(el.nodes[0]), pick(el.nodes[1]), pick(el.nodes[2])])
                .unwrap();
        }
        let removed = doubled.merge_coincident_nodes(1e-9);
        assert_eq!(removed, base.node_count());
        assert_eq!(doubled.node_count(), base.node_count());
        assert!((doubled.total_area() - base.total_area()).abs() < 1e-9);
        assert!(doubled.validate().is_ok());
    }
}

/// Polyline chaining conserves total contour length and never drops a
/// segment.
#[test]
fn polyline_chaining_conserves_length() {
    let mut rng = SplitMix64::new(0x4a5);
    for _ in 0..64 {
        let cells = usize_in(&mut rng, 2, 9);
        let n = usize_in(&mut rng, 6, 21);
        let values = vec_f64(&mut rng, -40.0, 40.0, n);
        let t = rng.f64_in(0.15, 0.85);
        let mesh = strip_mesh(cells, &[]);
        if values.len() < mesh.node_count() {
            continue;
        }
        let field = NodalField::new("S", values[..mesh.node_count()].to_vec());
        let (lo, hi) = field.min_max().unwrap();
        if hi - lo <= 1.0 {
            continue;
        }
        let level = lo + t * (hi - lo);
        let isograms = extract_isograms(&mesh, &field, &[level]).unwrap();
        let chains = isograms[0].polylines(1e-9);
        let chained: f64 = chains
            .iter()
            .map(|c| c.windows(2).map(|w| w[0].distance_to(w[1])).sum::<f64>())
            .sum();
        assert!((chained - isograms[0].length()).abs() < 1e-9);
        let points: usize = chains.iter().map(|c| c.len() - 1).sum();
        assert_eq!(points, isograms[0].segments.len());
    }
}

/// Every isogram segment endpoint interpolates exactly to its level, and
/// levels outside the field range draw nothing.
#[test]
fn isogram_interpolation_exact() {
    let mut rng = SplitMix64::new(0x4a6);
    for _ in 0..64 {
        let cells = usize_in(&mut rng, 2, 9);
        let n = usize_in(&mut rng, 6, 21);
        let values = vec_f64(&mut rng, -50.0, 50.0, n);
        let t = rng.f64_in(0.1, 0.9);
        let mesh = strip_mesh(cells, &[]);
        if values.len() < mesh.node_count() {
            continue;
        }
        let values = &values[..mesh.node_count()];
        let field = NodalField::new("S", values.to_vec());
        let (lo, hi) = field.min_max().unwrap();
        if hi - lo <= 1.0 {
            continue;
        }
        let level = lo + t * (hi - lo);
        let isograms = extract_isograms(&mesh, &field, &[level, hi + 10.0]).unwrap();
        assert!(isograms[1].segments.is_empty());
        for seg in &isograms[0].segments {
            for p in [seg.a, seg.b] {
                // Find the element containing p and interpolate.
                let mut matched = false;
                for (id, el) in mesh.elements() {
                    let tri = mesh.triangle(id);
                    if let Some(w) = tri.barycentric(p) {
                        if w.iter().all(|&wi| wi >= -1e-9) {
                            let v = w[0] * field.value(el.nodes[0])
                                + w[1] * field.value(el.nodes[1])
                                + w[2] * field.value(el.nodes[2]);
                            assert!((v - level).abs() < 1e-6, "v {v} level {level}");
                            matched = true;
                            break;
                        }
                    }
                }
                assert!(matched, "segment endpoint outside the mesh");
            }
        }
    }
}

/// Audit property: for random jittered strip models under random loads,
/// the solution of *every* backend — band (the default), dense, and
/// skyline — passes the residual and equilibrium audit at 1e-8, and the
/// backends agree with each other to the strict differential bound.
#[test]
fn every_backend_passes_the_residual_audit() {
    use cafemio::audit::{
        check_differential, check_solution, check_sparse_differential, AuditOptions,
    };
    use cafemio::fem::{AnalysisKind, FemModel, Material};

    let mut rng = SplitMix64::new(0x4a7);
    let options = AuditOptions::strict();
    for _ in 0..24 {
        let cells = usize_in(&mut rng, 2, 9);
        let n = usize_in(&mut rng, 0, 39);
        let jitter = vec_f64(&mut rng, -1.0, 1.0, n);
        let mesh = strip_mesh(cells, &jitter);
        let mut model = FemModel::new(
            mesh.clone(),
            AnalysisKind::PlaneStress {
                thickness: rng.f64_in(0.1, 2.0),
            },
            Material::isotropic(rng.f64_in(1.0e6, 5.0e7), rng.f64_in(0.05, 0.45)),
        );
        for (id, node) in mesh.nodes() {
            if node.position.x < 0.5 {
                model.fix_both(id);
            } else if node.position.x > cells as f64 - 0.5 {
                model.add_force(id, rng.f64_in(-40.0, 40.0), rng.f64_in(-40.0, 40.0));
            }
        }
        let band = model.solve().unwrap();
        let dense = model.solve_dense().unwrap();
        let skyline = model.solve_skyline().unwrap();
        let sparse = model.solve_sparse().unwrap();
        for (backend, solution) in [
            ("band", &band),
            ("dense", &dense),
            ("skyline", &skyline),
            ("sparse-cg", &sparse),
        ] {
            let checks = check_solution(&model, solution, &options)
                .unwrap_or_else(|e| panic!("{backend}: {e}"));
            assert_eq!(checks, 3, "{backend}");
        }
        check_differential(&model, &band, &options).unwrap();
        check_sparse_differential(&model, &band, &options).unwrap();
    }
}
