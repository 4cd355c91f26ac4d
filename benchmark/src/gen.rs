//! Input generation, run in a child process before anything is timed.
//!
//! The child writes every input a workload reads (the knor matrix files)
//! and, for the training workloads, the serial reference fit for each
//! init the run uses. Running it in its own process keeps the generator's
//! memory out of the measured process's peak RSS.

use crate::train::TrainShape;
use crate::Workload;
use knor_core::serial::lloyd_serial;
use knor_core::{InitMethod, KmeansResult};
use knor_matrix::io::write_matrix;
use knor_matrix::DMatrix;
use knor_workloads::{Balance, MixtureSpec, PaperDataset};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The serve workload's query pool: requests of `SERVE_ROWS` rows each,
/// sent round-robin.
pub const SERVE_REQUESTS: usize = 2048;
pub const SERVE_ROWS: usize = 8;
pub const SERVE_K: usize = 64;
pub const SERVE_D: usize = 32;

/// The overlapping mixture of `im_overlap` (and, at another size, the
/// served model and its queries): separation 2, σ = 1, 10% noise.
fn overlap_mixture(n: usize, d: usize, k: usize, seed: u64) -> MixtureSpec {
    MixtureSpec { n, d, k, separation: 2.0, sigma: 1.0, balance: Balance::Equal, noise: 0.1, seed }
}

/// Write `m` and flush it to the device, so write-back does not land
/// inside a timed fit.
fn write_synced(path: &Path, m: &DMatrix) -> io::Result<()> {
    write_matrix(path, m)?;
    File::open(path)?.sync_all()
}

pub fn generate(w: Workload, seed: u64, dir: &Path) -> io::Result<()> {
    if w == Workload::ServeMux {
        let mix = overlap_mixture(SERVE_REQUESTS * SERVE_ROWS, SERVE_D, SERVE_K, seed).generate();
        write_synced(&dir.join("model.knor"), &mix.centers)?;
        return write_synced(&dir.join("queries.knor"), &mix.data);
    }
    let data_path = dir.join("data.knor");
    let shape = TrainShape::of(w);
    let data = match w {
        Workload::ImOverlap => overlap_mixture(shape.n, shape.d, shape.k, seed).generate().data,
        Workload::SemBudget => {
            let data = PaperDataset::Friendster8.generate(shape.n as f64 / 66e6, seed).data;
            assert_eq!((data.nrow(), data.ncol()), (shape.n, shape.d));
            data
        }
        Workload::ServeMux => unreachable!("handled above"),
    };
    write_synced(&data_path, &data)?;
    // One serial reference per init, computed on the worker budget.
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..crate::sys::nproc().min(shape.inits))
            .map(|_| {
                s.spawn(|| -> io::Result<()> {
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= shape.inits {
                            return Ok(());
                        }
                        let init_seed = shape.init_seed(seed, j);
                        let init = match w {
                            // knors seeds Forgy from the device; the
                            // reference starts from the same rows.
                            Workload::SemBudget => InitMethod::Given(
                                knor_sem::plane::forgy_from_file(&data_path, shape.k, init_seed)?,
                            ),
                            _ => InitMethod::Forgy,
                        };
                        let t = Instant::now();
                        let r =
                            lloyd_serial(&data, shape.k, &init, init_seed, shape.max_iters, 0.0);
                        Reference::write(&ref_path(dir, j), &r, t.elapsed().as_secs_f64())?;
                    }
                })
            })
            .collect();
        workers.into_iter().try_for_each(|h| h.join().expect("reference thread"))
    })
}

pub fn ref_path(dir: &Path, j: usize) -> PathBuf {
    dir.join(format!("ref-{j}.bin"))
}

/// The serial fit every timed fit is checked against. Only its scalars
/// stay in memory; the assignments are read back from the file for each
/// check, so references add nothing to the measured peak RSS.
pub struct Reference {
    pub niters: usize,
    pub sse: f64,
    /// Wall time of the serial fit (the single-threaded baseline).
    pub serial_s: f64,
    path: PathBuf,
}

const HEADER: usize = 32;

impl Reference {
    fn write(path: &Path, r: &KmeansResult, serial_s: f64) -> io::Result<()> {
        let mut b = Vec::with_capacity(HEADER + 4 * r.assignments.len());
        b.extend((r.niters as u64).to_le_bytes());
        b.extend(r.sse.expect("serial reference computes SSE").to_le_bytes());
        b.extend(serial_s.to_le_bytes());
        b.extend((r.assignments.len() as u64).to_le_bytes());
        for a in &r.assignments {
            b.extend(a.to_le_bytes());
        }
        File::create(path)?.write_all(&b)
    }

    pub fn read(path: &Path) -> io::Result<Self> {
        let mut h = [0u8; HEADER];
        File::open(path)?.read_exact(&mut h)?;
        let word = |i: usize| -> [u8; 8] { h[i * 8..i * 8 + 8].try_into().unwrap() };
        let n = u64::from_le_bytes(word(3));
        if std::fs::metadata(path)?.len() != HEADER as u64 + 4 * n {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated reference"));
        }
        Ok(Self {
            niters: u64::from_le_bytes(word(0)) as usize,
            sse: f64::from_le_bytes(word(1)),
            serial_s: f64::from_le_bytes(word(2)),
            path: path.to_path_buf(),
        })
    }

    /// Compare one fit with the reference: identical assignments and
    /// iteration count, SSE within 1e-9 relative (its last bits vary with
    /// the parallel reduction order).
    pub fn check(&self, assignments: &[u32], niters: usize, sse: f64) -> Result<(), String> {
        if niters != self.niters {
            return Err(format!("iterations {niters} != reference {}", self.niters));
        }
        let b = std::fs::read(&self.path).map_err(|e| format!("reading the reference: {e}"))?;
        let want = b[HEADER..].chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap()));
        let diff = if want.len() == assignments.len() {
            want.zip(assignments).filter(|(w, a)| w != *a).count()
        } else {
            assignments.len().max(want.len())
        };
        if diff != 0 {
            return Err(format!("{diff} assignments differ from the reference"));
        }
        let rel = (sse - self.sse).abs() / self.sse.abs().max(f64::MIN_POSITIVE);
        if rel.is_nan() || rel > 1e-9 {
            return Err(format!("SSE {sse} vs reference {} (relative {rel:e})", self.sse));
        }
        Ok(())
    }
}
