//! `fastann` — command-line front end for the distributed ANN library.
//!
//! ```text
//! fastann build  <base.fvecs> <index.idx> [--cores N] [--per-node T] [--m M]
//!                [--efc N] [--seed S]
//! fastann search <index.idx> <queries.fvecs> <out.ivecs> [--k K] [--ef N]
//!                [--replication R] [--two-sided]
//! fastann gt     <base.fvecs> <queries.fvecs> <out.ivecs> [--k K]
//! fastann eval   <approx.ivecs> <truth.ivecs> [--k K]
//! fastann stats  <base.fvecs> [--sample N]
//! ```
//!
//! Vectors travel in the TEXMEX `.fvecs` format, neighbour lists in
//! `.ivecs` — the formats the paper's corpora ship in.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use fastann::core::{DistIndex, EngineConfig, RoutingPolicy, SearchOptions, SearchRequest};
use fastann::data::{dataset_stats, ground_truth, io, Distance, Neighbor, VectorSet};
use fastann::hnsw::HnswConfig;

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = std::collections::HashMap::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if matches!(it.peek(), Some(v) if !v.starts_with("--")) {
                    it.next().expect("peeked").clone()
                } else {
                    "true".to_string() // boolean flag
                };
                flags.insert(name.to_string(), value);
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn usize_flag(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} wants an integer, got '{v}'")),
        }
    }

    fn bool_flag(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn pos(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing argument: {what}"))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "-h" {
        eprint!("{}", USAGE);
        return ExitCode::from(2);
    }
    let cmd = raw[0].clone();
    let args = match Args::parse(&raw[1..]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let result = match cmd.as_str() {
        "build" => cmd_build(&args),
        "search" => cmd_search(&args),
        "gt" => cmd_gt(&args),
        "eval" => cmd_eval(&args),
        "stats" => cmd_stats(&args),
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("fastann: {msg}");
    ExitCode::FAILURE
}

const USAGE: &str = "\
usage:
  fastann build  <base.fvecs> <index.idx> [--cores N] [--per-node T] [--m M] [--efc N] [--seed S]
  fastann search <index.idx> <queries.fvecs> <out.ivecs> [--k K] [--ef N] [--replication R] [--two-sided]
  fastann gt     <base.fvecs> <queries.fvecs> <out.ivecs> [--k K]
  fastann eval   <approx.ivecs> <truth.ivecs> [--k K]
  fastann stats  <base.fvecs> [--sample N]
";

fn cmd_build(args: &Args) -> Result<(), String> {
    let base = args.pos(0, "base .fvecs file")?;
    let out = args.pos(1, "output index path")?;
    let cores = args.usize_flag("cores", 16)?;
    let per_node = args.usize_flag("per-node", 4)?;
    let m = args.usize_flag("m", 16)?;
    let efc = args.usize_flag("efc", 100)?;
    let seed = args.usize_flag("seed", 0)? as u64;

    let data = io::read_fvecs(base, None).map_err(|e| e.to_string())?;
    eprintln!("loaded {} x {}d vectors", data.len(), data.dim());
    let cfg = EngineConfig::new(cores, per_node)
        .with_hnsw(HnswConfig::with_m(m).ef_construction(efc).seed(seed))
        .with_seed(seed);
    let t0 = std::time::Instant::now();
    let index = DistIndex::build(&data, cfg);
    index.save(out).map_err(|e| e.to_string())?;
    eprintln!(
        "built {} partitions in {:.1}s wall ({:.1} virtual ms) -> {}",
        index.n_partitions(),
        t0.elapsed().as_secs_f64(),
        index.build_stats.total_ns / 1e6,
        out
    );
    Ok(())
}

fn cmd_search(args: &Args) -> Result<(), String> {
    let idx_path = args.pos(0, "index file")?;
    let q_path = args.pos(1, "query .fvecs file")?;
    let out = args.pos(2, "output .ivecs path")?;
    let k = args.usize_flag("k", 10)?;
    let ef = args.usize_flag("ef", 4 * k.max(8))?;
    let replication = args.usize_flag("replication", 1)?;

    let index = DistIndex::load(idx_path).map_err(|e| e.to_string())?;
    let queries = io::read_fvecs(q_path, None).map_err(|e| e.to_string())?;
    check_query_dim(&queries, index.dim(), "index")?;
    let opts = SearchOptions::new(k)
        .with_ef(ef)
        .with_routing(RoutingPolicy::Static(replication))
        .with_one_sided(!args.bool_flag("two-sided"));
    let report = SearchRequest::new(&index, &queries).opts(opts).run();
    let lists: Vec<Vec<u32>> = report
        .results
        .iter()
        .map(|r| r.iter().map(|n| n.id).collect())
        .collect();
    let mut f = std::io::BufWriter::new(std::fs::File::create(out).map_err(|e| e.to_string())?);
    io::write_ivecs_to(&mut f, &lists).map_err(|e| e.to_string())?;
    eprintln!(
        "{} queries in {:.2} virtual ms ({:.0} q/s, fan-out {:.2}) -> {}",
        queries.len(),
        report.total_ns / 1e6,
        report.throughput_qps(),
        report.mean_fanout,
        out
    );
    Ok(())
}

/// Rejects a query file whose dimension differs from the `what` vectors'
/// `dim`, before the search or scan would panic on it.
fn check_query_dim(queries: &VectorSet, dim: usize, what: &str) -> Result<(), String> {
    if queries.dim() == dim {
        Ok(())
    } else {
        Err(format!(
            "query dimension {} does not match {what} dimension {dim}",
            queries.dim()
        ))
    }
}

fn cmd_gt(args: &Args) -> Result<(), String> {
    let base = args.pos(0, "base .fvecs file")?;
    let q_path = args.pos(1, "query .fvecs file")?;
    let out = args.pos(2, "output .ivecs path")?;
    let k = args.usize_flag("k", 10)?;
    let data = io::read_fvecs(base, None).map_err(|e| e.to_string())?;
    let queries = io::read_fvecs(q_path, None).map_err(|e| e.to_string())?;
    check_query_dim(&queries, data.dim(), "base")?;
    let gt = ground_truth::brute_force(&data, &queries, k, Distance::L2);
    let lists: Vec<Vec<u32>> = gt
        .iter()
        .map(|r| r.iter().map(|n| n.id).collect())
        .collect();
    let mut f = std::io::BufWriter::new(std::fs::File::create(out).map_err(|e| e.to_string())?);
    io::write_ivecs_to(&mut f, &lists).map_err(|e| e.to_string())?;
    eprintln!("exact {k}-NN for {} queries -> {}", queries.len(), out);
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let approx_path = args.pos(0, "approx .ivecs file")?;
    let truth_path = args.pos(1, "truth .ivecs file")?;
    let k = args.usize_flag("k", 10)?;
    let approx = io::read_ivecs(approx_path, None).map_err(|e| e.to_string())?;
    let truth = io::read_ivecs(truth_path, None).map_err(|e| e.to_string())?;
    if approx.len() != truth.len() {
        return Err(format!(
            "query counts differ: {} vs {}",
            approx.len(),
            truth.len()
        ));
    }
    // adapt id lists to the recall helper's neighbour form
    let as_neighbors = |lists: &[Vec<u32>]| -> Vec<Vec<Neighbor>> {
        lists
            .iter()
            .map(|l| {
                l.iter()
                    .enumerate()
                    .map(|(i, &id)| Neighbor::new(id, i as f32))
                    .collect()
            })
            .collect()
    };
    let recall = ground_truth::recall_at_k(&as_neighbors(&approx), &as_neighbors(&truth), k);
    println!(
        "recall@{k}: mean {:.4}, min {:.4} over {} queries",
        recall.mean, recall.min, recall.n_queries
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let base = args.pos(0, "base .fvecs file")?;
    let sample = args.usize_flag("sample", 200)?;
    let data = io::read_fvecs(base, None).map_err(|e| e.to_string())?;
    let s = dataset_stats(&data, Distance::L2, sample, 0);
    println!("points          {}", data.len());
    println!("ambient dim     {}", s.dim);
    println!("intrinsic dim   {:.1}", s.intrinsic_dim);
    println!("mean NN dist    {:.3}", s.mean_nn);
    println!("mean pair dist  {:.3}", s.mean_pair);
    println!(
        "NN contrast     {:.3}  (1.0 = no structure, near 0 = highly clustered)",
        s.contrast
    );
    Ok(())
}
