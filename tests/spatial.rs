//! Parity property tests for the spatial-acceleration layer: the BVH,
//! [`MeshIndex`], [`FieldProbe`], and the accelerated isogram extraction
//! must reproduce their brute-force definitions **bit for bit** — on
//! random geometry, on every catalog mesh, and on the mutated-deck
//! corpus the fault-injection suite drives.
//!
//! The workspace builds with no external dependencies, so these run each
//! property over seeded [`SplitMix64`] cases — deterministic run to run.

use cafemio::geom::{BoundingBox, Bvh, Point, Segment};
use cafemio::idlz::Idealization;
use cafemio::mesh::{BoundaryKind, FieldProbe, MeshIndex, NodalField, TriMesh};
use cafemio::ospl::{extract_isograms, extract_isograms_reference};
use cafemio::pipeline::PipelineBuilder;
use cafemio_bench::mutate::{base_decks, mutate, Fault, SplitMix64};

/// Random axis-aligned boxes, a few degenerate (point or segment) ones
/// among them.
fn random_boxes(rng: &mut SplitMix64, n: usize) -> Vec<BoundingBox> {
    (0..n)
        .map(|i| {
            let x = rng.f64_in(-10.0, 10.0);
            let y = rng.f64_in(-10.0, 10.0);
            let (w, h) = if i % 7 == 0 {
                (0.0, 0.0) // degenerate point box
            } else if i % 7 == 1 {
                (rng.f64_in(0.0, 3.0), 0.0) // degenerate segment box
            } else {
                (rng.f64_in(0.0, 3.0), rng.f64_in(0.0, 3.0))
            };
            BoundingBox::from_points([Point::new(x, y), Point::new(x + w, y + h)])
        })
        .collect()
}

/// A structured grid with every interior node jittered: irregular but
/// valid triangles, the shape the catalog meshes take after smoothing.
fn jittered_grid(rng: &mut SplitMix64, n: usize) -> TriMesh {
    let mut mesh = TriMesh::new();
    let mut ids = Vec::new();
    for j in 0..=n {
        for i in 0..=n {
            let boundary = i == 0 || j == 0 || i == n || j == n;
            let jitter = if boundary { 0.0 } else { 0.3 };
            let p = Point::new(
                i as f64 + rng.f64_in(-jitter, jitter),
                j as f64 + rng.f64_in(-jitter, jitter),
            );
            let kind = if boundary {
                BoundaryKind::Boundary
            } else {
                BoundaryKind::Interior
            };
            ids.push(mesh.add_node(p, kind));
        }
    }
    let at = |i: usize, j: usize| ids[j * (n + 1) + i];
    for j in 0..n {
        for i in 0..n {
            mesh.add_element([at(i, j), at(i + 1, j), at(i + 1, j + 1)]).unwrap();
            mesh.add_element([at(i, j), at(i + 1, j + 1), at(i, j + 1)]).unwrap();
        }
    }
    mesh
}

/// A smooth synthetic field over the node positions — enough curvature
/// that contour levels cross elements at all angles.
fn position_field(mesh: &TriMesh) -> NodalField {
    let values: Vec<f64> = mesh
        .nodes()
        .map(|(_, n)| {
            let (x, y) = (n.position.x, n.position.y);
            3.0 * x * x - 2.0 * x * y + y + 0.5 * y * y
        })
        .collect();
    NodalField::new("SPATIAL", values)
}

#[test]
fn bvh_overlap_and_stab_queries_match_the_brute_force_scan() {
    let mut rng = SplitMix64::new(0xB_5EED);
    for round in 0..50 {
        let count = 1 + rng.below(120);
        let boxes = random_boxes(&mut rng, count);
        let bvh = Bvh::build(&boxes);
        let query = random_boxes(&mut rng, 1)[0];
        let brute_overlap: Vec<usize> = (0..boxes.len())
            .filter(|&i| boxes[i].intersects(&query))
            .collect();
        assert_eq!(bvh.overlapping(&query), brute_overlap, "round {round}");
        let p = Point::new(rng.f64_in(-12.0, 12.0), rng.f64_in(-12.0, 12.0));
        let brute_stab: Vec<usize> =
            (0..boxes.len()).filter(|&i| boxes[i].contains(p)).collect();
        assert_eq!(bvh.stabbing(p), brute_stab, "round {round}");
    }
}

#[test]
fn bvh_nearest_matches_the_brute_argmin_with_ties_to_the_lower_index() {
    let mut rng = SplitMix64::new(0xD15_7A9CE);
    for round in 0..50 {
        let count = 1 + rng.below(100);
        let boxes = random_boxes(&mut rng, count);
        // Snap half the rounds onto an integer lattice so exact distance
        // ties between distinct items actually occur.
        let boxes: Vec<BoundingBox> = if round % 2 == 0 {
            boxes
                .iter()
                .map(|b| {
                    BoundingBox::from_points([
                        Point::new(b.min().x.round(), b.min().y.round()),
                        Point::new(b.max().x.round(), b.max().y.round()),
                    ])
                })
                .collect()
        } else {
            boxes
        };
        let segments: Vec<Segment> = boxes
            .iter()
            .map(|b| Segment::new(b.min(), b.max()))
            .collect();
        let bvh = Bvh::build(&boxes);
        let p = Point::new(rng.f64_in(-12.0, 12.0), rng.f64_in(-12.0, 12.0));
        let distance = |i: usize| segments[i].distance_to_point(p);
        let mut brute: Option<(usize, f64)> = None;
        for i in 0..boxes.len() {
            let d = distance(i);
            if d.is_nan() {
                continue;
            }
            if brute.is_none_or(|(_, best)| d < best) {
                brute = Some((i, d));
            }
        }
        assert_eq!(bvh.nearest_by(p, distance), brute, "round {round}");
    }
}

#[test]
fn mesh_index_queries_match_their_brute_definitions_on_random_meshes() {
    let mut rng = SplitMix64::new(0x6E0);
    for round in 0..12 {
        let size = 2 + rng.below(6);
        let mesh = jittered_grid(&mut rng, size);
        let index = MeshIndex::new(&mesh);
        let segments: Vec<Segment> = mesh
            .edges()
            .keys()
            .map(|e| Segment::new(mesh.node(e.0).position, mesh.node(e.1).position))
            .collect();
        for _ in 0..40 {
            let p = Point::new(rng.f64_in(-2.0, 9.0), rng.f64_in(-2.0, 9.0));
            let brute_locate = mesh
                .elements()
                .map(|(id, _)| id)
                .find(|&id| mesh.triangle(id).contains(p));
            assert_eq!(index.locate(p), brute_locate, "round {round} probe {p:?}");
            let brute_distance = segments
                .iter()
                .map(|s| s.distance_to_point(p))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                index.nearest_edge_distance(p),
                brute_distance,
                "round {round} probe {p:?}"
            );
        }
    }
}

#[test]
fn accelerated_isograms_match_the_reference_on_the_mutated_deck_corpus() {
    // Drive every base deck and a mutated variant of each fault through
    // idealization; whatever still yields a mesh (the SingularBc fault
    // leaves deck text untouched, and some mutations land harmlessly)
    // joins the corpus. On each mesh the interval-indexed extraction,
    // the element locator, and the nearest-edge query must agree with
    // their brute-force definitions exactly.
    let mut rng = SplitMix64::new(0xC0_FF_EE);
    let mut texts: Vec<String> = Vec::new();
    for (_, text) in base_decks() {
        for fault in Fault::ALL {
            texts.push(mutate(&text, fault, &mut rng));
        }
        texts.push(text);
    }
    let mut meshes_checked = 0usize;
    for text in &texts {
        let Ok(idealized) = PipelineBuilder::new()
            .parse(text)
            .and_then(|parsed| parsed.idealize())
        else {
            continue;
        };
        for mesh in idealized.meshes() {
            let field = position_field(mesh);
            let (min, max) = field.min_max().expect("non-empty field");
            let levels: Vec<f64> =
                (1..8).map(|k| min + (max - min) * k as f64 / 8.0).collect();
            let fast = extract_isograms(mesh, &field, &levels).unwrap();
            let slow = extract_isograms_reference(mesh, &field, &levels).unwrap();
            assert_eq!(fast, slow);
            let index = MeshIndex::new(mesh);
            let segments: Vec<Segment> = mesh
                .edges()
                .keys()
                .map(|e| Segment::new(mesh.node(e.0).position, mesh.node(e.1).position))
                .collect();
            let extents = mesh.bounding_box();
            for _ in 0..20 {
                let p = Point::new(
                    rng.f64_in(extents.min().x - 1.0, extents.max().x + 1.0),
                    rng.f64_in(extents.min().y - 1.0, extents.max().y + 1.0),
                );
                let brute_locate = mesh
                    .elements()
                    .map(|(id, _)| id)
                    .find(|&id| mesh.triangle(id).contains(p));
                assert_eq!(index.locate(p), brute_locate, "probe {p:?}");
                let brute_distance = segments
                    .iter()
                    .map(|s| s.distance_to_point(p))
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(index.nearest_edge_distance(p), brute_distance, "probe {p:?}");
            }
            meshes_checked += 1;
        }
    }
    assert!(meshes_checked >= base_decks().len(), "corpus too small: {meshes_checked}");
}

#[test]
fn field_probe_agrees_with_the_brute_barycentric_scan_on_every_catalog_mesh() {
    let mut rng = SplitMix64::new(0x5A_3F1E);
    let mut meshes_checked = 0usize;
    for entry in cafemio::models::catalog() {
        let Ok(idealized) = Idealization::run(&(entry.spec)()) else {
            continue;
        };
        let mesh = idealized.mesh;
        let field = position_field(&mesh);
        let probe = FieldProbe::new(&mesh, &field).unwrap();
        let extents = mesh.bounding_box();
        // Random probes across (and slightly beyond) the extents, plus
        // every element centroid — points guaranteed inside.
        let mut points: Vec<Point> = (0..40)
            .map(|_| {
                Point::new(
                    rng.f64_in(extents.min().x - 0.5, extents.max().x + 0.5),
                    rng.f64_in(extents.min().y - 0.5, extents.max().y + 0.5),
                )
            })
            .collect();
        points.extend(mesh.elements().take(200).map(|(id, _)| {
            let v = mesh.triangle(id).vertices;
            Point::new(
                (v[0].x + v[1].x + v[2].x) / 3.0,
                (v[0].y + v[1].y + v[2].y) / 3.0,
            )
        }));
        for p in points {
            assert_eq!(
                probe.sample(p.x, p.y),
                probe.sample_reference(p.x, p.y),
                "{}: probe {p:?}",
                entry.name
            );
        }
        meshes_checked += 1;
    }
    assert!(meshes_checked > 0, "catalog yielded no meshes");
}
