//! Routing micro-benchmarks: per-query latency of every method (the basis
//! of Table 5's QPS column), constrained vs unconstrained decoding, DFS
//! serialization, index construction, and the f32 vs i8 quantized hot
//! path (the raw matvec kernel, the activation quantizer, and end-to-end
//! routing).
//!
//! CI runs this bench in `--compare` mode against the committed baseline
//! at `benches/baselines/routing.json`; refresh it with
//! `cargo bench --bench routing -- --save-baseline benches/baselines/routing.json`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use dbcopilot_core::{load_router, save_router, DbcRouter, SerializationMode};
use dbcopilot_eval::{build_method, prepare, CorpusKind, MethodKind, Scale};
use dbcopilot_graph::{dfs_serialize, IterOrder};
use dbcopilot_nn::quant::{quantize_row_into, quantize_row_scalar};
use dbcopilot_nn::{QuantizedMatrix, QuantizedVec, Tensor};
use dbcopilot_retrieval::{PrecisionSwitch, RoutePrecision, SchemaRouter};

/// A deliberately tiny setup: per-query latency does not need a large
/// corpus or a converged model, and the full quick-scale training used to
/// make `cargo bench` setup take minutes. One small router is trained once
/// and reused by both the routing and the decoding benchmark groups.
fn bench_scale() -> Scale {
    let mut s = Scale::quick();
    s.spider = dbcopilot_synth::CorpusSizes { num_databases: 8, train_n: 120, test_n: 10 };
    s.synth_pairs = 200;
    s.router.epochs = 2;
    s.encoder.epochs = 2;
    s
}

fn bench_routing(c: &mut Criterion) {
    let scale = bench_scale();
    let prepared = prepare(CorpusKind::Spider, &scale);
    let question = &prepared.corpus.test[0].question;

    // the shared pre-trained router fixture
    let (mut dbc, _) = DbcRouter::fit(
        prepared.graph.clone(),
        &prepared.synth_examples,
        scale.router.clone(),
        SerializationMode::Dfs,
    );

    let mut group = c.benchmark_group("route_one_query");
    for &m in &[MethodKind::Bm25, MethodKind::Sxfmr, MethodKind::CrushBm25, MethodKind::Dtr] {
        let (router, _) = build_method(m, &prepared, &scale);
        group.bench_with_input(BenchmarkId::from_parameter(m.label()), question, |b, q| {
            b.iter(|| router.route(q, 100))
        });
    }
    group.bench_with_input(BenchmarkId::from_parameter("DBCopilot"), question, |b, q| {
        b.iter(|| dbc.route(q, 100))
    });
    group.finish();

    // constrained vs unconstrained decoding (Table 7 CD ablation cost),
    // on the same pre-trained fixture
    let mut group = c.benchmark_group("decoding");
    group.bench_function("constrained", |b| b.iter(|| dbc.sequences(question)));
    dbc.decode_opts.constrained = false;
    group.bench_function("unconstrained", |b| b.iter(|| dbc.sequences(question)));
    dbc.decode_opts.constrained = true;
    dbc.decode_opts.diverse = false;
    group.bench_function("plain_beams", |b| b.iter(|| dbc.sequences(question)));
    // The same constrained decode over a 25x larger catalogue: the decoding
    // tables are built once per router, so a question must not pay for the
    // catalogue's size (it did when they were rebuilt per call).
    let mut big = bench_scale();
    big.spider.num_databases = 200;
    let prepared_big = prepare(CorpusKind::Spider, &big);
    let (dbc_big, _) = DbcRouter::fit(
        prepared_big.graph.clone(),
        &prepared_big.synth_examples,
        big.router.clone(),
        SerializationMode::Dfs,
    );
    let question_big = &prepared_big.corpus.test[0].question;
    group.bench_function("constrained_200db", |b| b.iter(|| dbc_big.sequences(question_big)));
    group.finish();

    // DFS serialization
    let schema = &prepared.corpus.test[0].schema;
    c.bench_function("dfs_serialize", |b| {
        b.iter(|| dfs_serialize(&prepared.graph, schema, IterOrder::Fixed))
    });

    // index construction
    c.bench_function("bm25_build", |b| {
        b.iter(|| {
            dbcopilot_retrieval::Bm25Index::build(
                prepared.targets.clone(),
                dbcopilot_retrieval::Bm25Params::default(),
            )
        })
    });

    // persistence: the DBC1 bundle codec on the same pre-trained fixture
    // (Table 5 build/disk accounting path)
    let mut group = c.benchmark_group("persistence");
    let mut bin = Vec::new();
    save_router(&dbc, &mut bin).unwrap();
    group.bench_function("save_binary", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(bin.len());
            save_router(&dbc, &mut buf).unwrap();
            buf
        })
    });
    group.bench_function("load_binary", |b| b.iter(|| load_router(bin.as_slice()).unwrap()));
    group.finish();
}

/// The quantized hot path vs the f32 reference, at two levels: the raw
/// matvec kernel that dominates scoring, and a full `route()` call through
/// the precision knob. The i8 rows are the ones the perf-regression gate
/// most cares about — a change that silently de-quantizes the hot loop
/// shows up here as a large delta.
fn bench_quantized(c: &mut Criterion) {
    // kernel: [512 x 256] matvec, roughly the q_proj shape at paper scale
    let (rows, cols) = (512, 256);
    let w = Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|i| ((i * 2_654_435_761) % 1000) as f32 / 500.0 - 1.0).collect(),
    );
    let x: Vec<f32> = (0..cols).map(|i| (i as f32 / cols as f32) - 0.5).collect();
    let qw = QuantizedMatrix::from_tensor(&w);
    let qx = QuantizedVec::quantize(&x);

    let mut group = c.benchmark_group("quant_matvec");
    let mut out = vec![0.0f32; rows];
    group.bench_function("f32", |b| {
        b.iter(|| {
            for (r, o) in out.iter_mut().enumerate() {
                let row = w.row(r);
                *o = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            }
            black_box(out[rows - 1])
        })
    });
    let mut qout = Vec::with_capacity(rows);
    group.bench_function("i8", |b| {
        b.iter(|| {
            qw.matvec_into(&qx, &mut qout);
            black_box(qout[rows - 1])
        })
    });
    group.finish();

    // activation quantizer: one step input (dim 48 + hidden 64), the
    // portable path against the dispatching one (AVX2 where the CPU has it)
    let step_input: Vec<f32> = (0..112).map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0).collect();
    let mut codes = vec![0i8; step_input.len()];
    let mut group = c.benchmark_group("quant_quantize");
    group.bench_function("scalar", |b| {
        b.iter(|| quantize_row_scalar(black_box(&step_input), &mut codes))
    });
    group.bench_function("simd", |b| {
        b.iter(|| quantize_row_into(black_box(&step_input), &mut codes))
    });
    group.finish();

    // route level: the same trained fixture served at both precisions
    let scale = bench_scale();
    let prepared = prepare(CorpusKind::Spider, &scale);
    let question = &prepared.corpus.test[0].question;
    let (mut dbc, _) = DbcRouter::fit(
        prepared.graph.clone(),
        &prepared.synth_examples,
        scale.router.clone(),
        SerializationMode::Dfs,
    );

    let mut group = c.benchmark_group("quant_route");
    group.bench_function("f32", |b| b.iter(|| dbc.route(question, 100)));
    dbc.set_precision(RoutePrecision::I8);
    group.bench_function("i8", |b| b.iter(|| dbc.route(question, 100)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_routing, bench_quantized
}
criterion_main!(benches);
