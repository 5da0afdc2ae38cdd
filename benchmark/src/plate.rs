//! The CG-bound plate: a `large_mesh_smoke`-family plate solved by
//! Jacobi-preconditioned CG under the large-mesh capability, once at
//! the default thread count and once with parallelism vetoed.

use std::hint::black_box;
use std::time::Instant;

use cafemio::audit::{check_solution, AuditOptions};
use cafemio::fem::{solve_cg, AnalysisKind, CgOptions, FemModel, Material, SolverBackend};
use cafemio::geom::Point;
use cafemio::idlz::{Capability, IdealizationSpec, ShapeLine, Subdivision};
use cafemio::instrument::par;
use cafemio::ospl::{ContourOptions, OsplLimits};
use cafemio::pipeline::{PipelineBuilder, StressComponent};
use cafemio::SessionConfig;
use cafemio_bench::mutate::SplitMix64;

use crate::cpu;
use crate::report::Outcome;
use crate::stats::{mean, median, ms, on_fresh_thread, us};

/// Plate geometry: `bands` square subdivisions of `width` × `width`
/// grid cells stacked vertically, `2·width²·bands` elements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlateSize {
    pub width: i32,
    pub bands: i32,
}

/// The phase's inputs: the plate spec and its seeded edge load.
pub struct Plate {
    size: PlateSize,
    spec: IdealizationSpec,
    /// Traction per loaded top-edge node; the seed scales it, which
    /// leaves the CG iteration count (a relative-residual stop) and so
    /// the cost unchanged across seeds.
    load: f64,
}

fn plate_spec(size: PlateSize) -> IdealizationSpec {
    let mut spec = IdealizationSpec::new("BENCHMARK CG PLATE");
    let mut options = spec.options();
    options.plots = false;
    options.punch = false;
    options.renumber = false;
    spec.set_options(options);
    for band in 0..size.bands {
        let id = (band + 1) as usize;
        let (lo, hi) = (band * size.width, (band + 1) * size.width);
        spec.add_subdivision(
            Subdivision::rectangular(id, (0, lo), (size.width, hi)).expect("valid band"),
        );
        for l in [lo, hi] {
            spec.add_shape_line(
                id,
                ShapeLine::straight(
                    (0, l),
                    (size.width, l),
                    Point::new(0.0, l as f64),
                    Point::new(size.width as f64, l as f64),
                ),
            );
        }
    }
    spec
}

/// Set-up: the spec and the seeded load.
pub fn setup(seed: u64, size: PlateSize) -> Plate {
    let mut rng = SplitMix64::new(seed ^ 0x91a7_e000);
    let load = 5.0 + (rng.next_u64() % 1000) as f64 / 100.0;
    Plate {
        size,
        spec: plate_spec(size),
        load,
    }
}

fn session() -> PipelineBuilder {
    PipelineBuilder::new().config(
        SessionConfig::new()
            .capability(Capability::LargeMesh)
            .solver(SolverBackend::SparseCg),
    )
}

fn model(mesh: &cafemio::mesh::TriMesh, top: f64, load: f64) -> FemModel {
    let mut model = FemModel::new(
        mesh.clone(),
        AnalysisKind::PlaneStress { thickness: 1.0 },
        Material::isotropic(30.0e6, 0.3),
    );
    for (id, node) in mesh.nodes() {
        if node.position.y.abs() < 1e-9 {
            model.fix_both(id);
        }
        if (node.position.y - top).abs() < 1e-9 {
            model.add_force(id, 0.0, load);
        }
    }
    model
}

/// Times of one plate, spec to contour: wall clock, and CPU time
/// (every thread of the process; see `cpu`).
struct PlateRun {
    solve: f64,
    solve_serial: f64,
    total: f64,
    contour: f64,
    solve_cpu: f64,
    solve_serial_cpu: f64,
    total_cpu: f64,
}

fn one_plate(plate: &Plate) -> Result<PlateRun, String> {
    let top = (plate.size.width * plate.size.bands) as f64;
    let cpu_started = cpu::process();
    let t = Instant::now();
    let idealized = session()
        .specs(vec![plate.spec.clone()])
        .idealize()
        .map_err(|e| e.to_string())?;
    let ready = idealized
        .setup(|mesh| Ok(model(mesh, top, plate.load)))
        .map_err(|e| e.to_string())?;
    let front = t.elapsed();
    let front_cpu = cpu::process() - cpu_started;
    let serial_input = ready.clone();

    let (t, c) = (Instant::now(), cpu::process());
    let solved = ready.solve().map_err(|e| e.to_string())?;
    let (solve, solve_cpu) = (t.elapsed(), cpu::process() - c);

    par::set_parallel(false);
    let (t, c) = (Instant::now(), cpu::process());
    let serial = serial_input.solve();
    let (solve_serial, solve_serial_cpu) = (t.elapsed(), cpu::process() - c);
    par::set_parallel(true);
    let serial = serial.map_err(|e| e.to_string())?;

    let case = &solved.cases()[0];
    let same = case.solution().dofs().len() == serial.cases()[0].solution().dofs().len()
        && case
            .solution()
            .dofs()
            .iter()
            .zip(serial.cases()[0].solution().dofs())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        return Err("parallel and serial CG solutions differ".into());
    }
    check_solution(case.model(), case.solution(), &AuditOptions::new())
        .map_err(|e| format!("solution audit: {e}"))?;

    let (t, c) = (Instant::now(), cpu::process());
    let recovered = solved.recover().map_err(|e| e.to_string())?;
    let recover = t.elapsed();
    let t = Instant::now();
    let plots = recovered
        .contour_with(
            StressComponent::Effective,
            &ContourOptions::new().limits(OsplLimits::unbounded()),
        )
        .map_err(|e| e.to_string())?;
    let contour = t.elapsed();
    let back_cpu = cpu::process() - c;
    if plots.iter().all(|p| p.contours.drawn_contours() == 0) {
        return Err("the plate contour drew nothing".into());
    }
    Ok(PlateRun {
        solve: solve.as_secs_f64(),
        solve_serial: solve_serial.as_secs_f64(),
        total: (front + solve + recover + contour).as_secs_f64(),
        contour: ms(contour),
        solve_cpu: solve_cpu.as_secs_f64(),
        solve_serial_cpu: solve_serial_cpu.as_secs_f64(),
        total_cpu: (front_cpu + solve_cpu + back_cpu).as_secs_f64(),
    })
}

/// The plate phase, one plate at a time, so that the caller can spread
/// its solves over the whole run.
pub struct Sampler<'a> {
    plate: &'a Plate,
    runs: Vec<PlateRun>,
    outcome: Outcome,
}

impl<'a> Sampler<'a> {
    pub fn new(plate: &'a Plate) -> Sampler<'a> {
        Sampler {
            plate,
            runs: Vec::new(),
            outcome: Outcome::default(),
        }
    }

    /// Plates attempted so far.
    pub fn attempted(&self) -> u64 {
        self.outcome.attempted
    }

    /// Whether a plate has failed; no more are worth solving then.
    pub fn failed(&self) -> bool {
        self.outcome.failed > 0
    }

    /// Solves one whole plate on a fresh thread.
    pub fn one(&mut self) {
        match on_fresh_thread(|| one_plate(self.plate)) {
            Ok(run) => {
                self.outcome.record(Ok(()));
                self.runs.push(run);
            }
            Err(e) => self.outcome.record(Err(format!("plate: {e}"))),
        }
    }

    /// Reports each CPU time (see `cpu`) as its mean over the plates
    /// solved, and each wall-clock time as its median.
    pub fn finish(self, traced: bool) -> Outcome {
        let Sampler {
            plate,
            runs,
            mut outcome,
        } = self;
        let times = |f: fn(&PlateRun) -> f64| runs.iter().map(f).collect::<Vec<_>>();
        let avg = |f: fn(&PlateRun) -> f64| mean(&times(f)).unwrap_or(0.0);
        let med = |f: fn(&PlateRun) -> f64| median(&times(f)).unwrap_or(0.0);
        eprintln!(
            "benchmark: {} plates: solve {:.4} CPU s, serial {:.4} CPU s; \
             wall medians {:.4} s, {:.4} s",
            runs.len(),
            avg(|r| r.solve_cpu),
            avg(|r| r.solve_serial_cpu),
            med(|r| r.solve),
            med(|r| r.solve_serial)
        );
        if !traced {
            outcome.e2e("solve_cpu_s", avg(|r| r.solve_cpu), "s");
            outcome.e2e("solve_serial_cpu_s", avg(|r| r.solve_serial_cpu), "s");
            outcome.e2e("plate_cpu_s", avg(|r| r.total_cpu), "s");
            return outcome;
        }
        outcome.layer("solve_s", med(|r| r.solve), "s");
        outcome.layer("solve_serial_s", med(|r| r.solve_serial), "s");
        outcome.layer("plate_total_s", med(|r| r.total), "s");
        outcome.layer("ospl.contour_ms", med(|r| r.contour), "ms");
        match kernels(plate) {
            Ok(layer) => outcome.per_layer.extend(layer.per_layer),
            Err(e) => outcome.record(Err(format!("plate kernels: {e}"))),
        }
        outcome
    }
}

/// CG taken apart: assembly, whole iterations, and the matvec alone at
/// both thread settings, each timed around the public call.
fn kernels(plate: &Plate) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let top = (plate.size.width * plate.size.bands) as f64;
    let idealized = session()
        .specs(vec![plate.spec.clone()])
        .idealize()
        .map_err(|e| e.to_string())?;
    let mesh = idealized.meshes().next().ok_or("no mesh")?.clone();
    let fem = model(&mesh, top, plate.load);

    let t = Instant::now();
    let (matrix, rhs) = fem.assemble_sparse().map_err(|e| e.to_string())?;
    out.layer("fem.assemble_ms", ms(t.elapsed()), "ms");

    let t = Instant::now();
    let (_, stats) = solve_cg(&matrix, &rhs, &CgOptions::new()).map_err(|e| e.to_string())?;
    let cg = t.elapsed();
    let iter_us = us(cg) / stats.iterations.max(1) as f64;
    out.layer("fem.cg.iterations", stats.iterations as f64, "count");
    out.layer("fem.cg.residual", stats.residual, "ratio");
    out.layer("fem.cg.iter_us", iter_us, "us");

    let x: Vec<f64> = (0..matrix.order())
        .map(|i| ((i % 17) as f64 - 8.0) * 1e-3)
        .collect();
    let reps = 200;
    let time_matvec = || {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            black_box(matrix.mul_vec(black_box(&x)));
            samples.push(us(t.elapsed()));
        }
        median(&samples).unwrap_or(0.0)
    };
    let matvec = time_matvec();
    par::set_parallel(false);
    let matvec_serial = time_matvec();
    par::set_parallel(true);

    // Bytes one matvec streams, computed from the array sizes: values
    // and column indices once, the row bounds, x gathered (counted once
    // per nonzero, an upper bound) and y written.
    let nnz = matrix.nonzeros() as f64;
    let n = matrix.order() as f64;
    let word = std::mem::size_of::<usize>() as f64;
    let bytes = nnz * (8.0 + word) + n * 2.0 * word + nnz * 8.0 + n * 8.0;
    out.layer("fem.nonzeros", nnz, "count");
    out.layer("fem.matvec_us", matvec, "us");
    out.layer("fem.matvec_serial_us", matvec_serial, "us");
    out.layer("fem.vecops_us", iter_us - matvec, "us");
    out.layer("fem.matvec_bytes", bytes, "bytes");
    out.layer("fem.matvec_gbps", bytes / (matvec * 1e3), "GB/s");
    out.layer(
        "par.matvec_speedup",
        matvec_serial / matvec.max(1e-9),
        "ratio",
    );

    // A copy probe moving the same number of bytes (read + write).
    let words = (bytes / 16.0).ceil() as usize;
    let src = vec![1.0f64; words];
    let mut dst = vec![0.0f64; words];
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        samples.push(us(t.elapsed()));
    }
    let copy_us = median(&samples).unwrap_or(0.0);
    out.layer(
        "mem.copy_gbps",
        (16 * words) as f64 / (copy_us * 1e3),
        "GB/s",
    );
    out.layer("mem.copy_bytes", (16 * words) as f64, "bytes");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_scales_only_the_load() {
        let size = PlateSize { width: 4, bands: 2 };
        let a = setup(1, size);
        let b = setup(1, size);
        let c = setup(2, size);
        assert_eq!(a.load, b.load);
        assert_ne!(a.load, c.load);
        assert_eq!(a.spec, c.spec);
        assert!((5.0..15.0).contains(&a.load));
    }
}
