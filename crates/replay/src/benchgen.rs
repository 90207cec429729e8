//! Automatic benchmark generation from traces (Hao et al.-style).
//!
//! The pipeline of *"Automatic generation of benchmarks for I/O-intensive
//! parallel applications"*: tokenize the trace, compress it with a
//! grammar (factoring loop structure), then emit a compact *benchmark* —
//! here both as human-readable looped pseudo-code and as a runnable
//! program that reproduces the exact operation sequence.

use crate::replayer::{replay_programs, ReplayMode};
use pioeval_iostack::StackOp;
use pioeval_trace::{RePair, TokenStream};
use pioeval_types::{LayerRecord, RecordOp};

/// A generated benchmark for one rank.
#[derive(Clone, Debug)]
pub struct GeneratedBenchmark {
    /// Runnable program (exact reproduction of the traced op sequence).
    pub program: Vec<StackOp>,
    /// Human-readable looped source (what Hao et al. emit as C code).
    pub source: String,
    /// Original trace length in operations.
    pub original_ops: usize,
    /// Grammar size (symbols) after compression.
    pub compressed_size: usize,
}

impl GeneratedBenchmark {
    /// Compression ratio achieved by the generator.
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_size == 0 {
            return 1.0;
        }
        self.original_ops as f64 / self.compressed_size as f64
    }
}

/// Generate a benchmark from one rank's captured records.
pub fn generate_benchmark(records: &[LayerRecord]) -> GeneratedBenchmark {
    // Data/meta content (what the benchmark must reproduce).
    let posix: Vec<LayerRecord> = records
        .iter()
        .filter(|r| {
            r.layer == pioeval_types::Layer::Posix
                && matches!(r.op, RecordOp::Data(_) | RecordOp::Meta(_))
        })
        .copied()
        .collect();
    let stream = TokenStream::from_records(&posix);
    let grammar = RePair::compress(&stream.symbols, stream.tokenizer.num_symbols());

    // Emit looped pseudo-code from the grammar: rules become `fn`s,
    // repeated runs in the start sequence become loops.
    let mut source = String::new();
    for (i, &(a, b)) in grammar.rules.iter().enumerate() {
        source.push_str(&format!(
            "fn rule_{i}() {{ {}; {} }}\n",
            sym_name(a, stream.tokenizer.num_symbols()),
            sym_name(b, stream.tokenizer.num_symbols())
        ));
    }
    source.push_str("fn benchmark() {\n");
    let mut i = 0;
    while i < grammar.sequence.len() {
        let s = grammar.sequence[i];
        let mut run = 1;
        while i + run < grammar.sequence.len() && grammar.sequence[i + run] == s {
            run += 1;
        }
        let name = sym_name(s, stream.tokenizer.num_symbols());
        if run > 1 {
            source.push_str(&format!("  for _ in 0..{run} {{ {name}; }}\n"));
        } else {
            source.push_str(&format!("  {name};\n"));
        }
        i += run;
    }
    source.push_str("}\n");
    for s in 0..stream.tokenizer.num_symbols() {
        let k = stream.tokenizer.key(s);
        source.push_str(&format!(
            "// op_{s}: {:?} file={} delta={} len={}\n",
            k.op, k.file, k.delta, k.len
        ));
    }

    // Runnable program: expand the grammar (lossless) and detokenize.
    let expanded = grammar.expand();
    debug_assert_eq!(expanded, stream.symbols);
    let program: Vec<StackOp> = stream
        .detokenize()
        .into_iter()
        .filter_map(|op| match op.op {
            RecordOp::Data(kind) => Some(StackOp::PosixData {
                kind,
                file: op.file,
                offset: op.offset,
                len: op.len,
            }),
            RecordOp::Meta(m) => Some(StackOp::PosixMeta {
                op: m,
                file: op.file,
            }),
            _ => None,
        })
        .collect();

    GeneratedBenchmark {
        program,
        source,
        original_ops: posix.len(),
        compressed_size: grammar.size(),
    }
}

fn sym_name(s: u32, terminals: u32) -> String {
    if s < terminals {
        format!("op_{s}()")
    } else {
        format!("rule_{}()", s - terminals)
    }
}

/// A quick self-check used in tests and experiments: the generated
/// program must replay to the same op list a plain replay would produce.
pub fn reproduces_trace(records: &[LayerRecord], bench: &GeneratedBenchmark) -> bool {
    let direct = replay_programs(&[records.to_vec()], ReplayMode::AsFastAsPossible);
    let direct_ops: Vec<&StackOp> = direct[0]
        .iter()
        .filter(|o| !matches!(o, StackOp::Compute(_)))
        .collect();
    direct_ops.len() == bench.program.len()
        && direct_ops
            .iter()
            .zip(&bench.program)
            .all(|(a, b)| format!("{a:?}") == format!("{b:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioeval_types::{FileId, IoKind, Layer, MetaOp, Rank, SimTime};

    fn loopy_trace(iterations: u64) -> Vec<LayerRecord> {
        let mut t = 0u64;
        let mut out = Vec::new();
        let mut push = |op, offset, len, out: &mut Vec<LayerRecord>| {
            out.push(LayerRecord {
                layer: Layer::Posix,
                rank: Rank::new(0),
                file: FileId::new(5),
                op,
                offset,
                len,
                start: SimTime::from_micros(t),
                end: SimTime::from_micros(t + 1),
            });
            t += 2;
        };
        push(RecordOp::Meta(MetaOp::Create), 0, 0, &mut out);
        for i in 0..iterations {
            push(RecordOp::Data(IoKind::Write), i * 8192, 4096, &mut out);
            push(
                RecordOp::Data(IoKind::Write),
                i * 8192 + 4096,
                4096,
                &mut out,
            );
        }
        push(RecordOp::Meta(MetaOp::Close), 0, 0, &mut out);
        out
    }

    #[test]
    fn loop_traces_compress_dramatically() {
        let records = loopy_trace(100);
        let bench = generate_benchmark(&records);
        assert_eq!(bench.original_ops, 202);
        assert!(
            bench.compression_ratio() > 10.0,
            "ratio {}",
            bench.compression_ratio()
        );
    }

    #[test]
    fn generated_program_reproduces_the_trace() {
        let records = loopy_trace(20);
        let bench = generate_benchmark(&records);
        assert!(reproduces_trace(&records, &bench));
        assert_eq!(bench.program.len(), 42);
    }

    #[test]
    fn source_contains_loops_for_repetition() {
        let records = loopy_trace(50);
        let bench = generate_benchmark(&records);
        assert!(bench.source.contains("for _ in 0.."), "{}", bench.source);
        assert!(bench.source.contains("fn benchmark()"));
    }

    #[test]
    fn irregular_traces_survive_without_compression() {
        // Random-ish offsets: little structure to factor.
        let mut records = Vec::new();
        for i in 0..30u64 {
            records.push(LayerRecord {
                layer: Layer::Posix,
                rank: Rank::new(0),
                file: FileId::new(5),
                op: RecordOp::Data(IoKind::Read),
                offset: (i * 7919) % 100_000,
                len: 100 + i * 13,
                start: SimTime::from_micros(i),
                end: SimTime::from_micros(i + 1),
            });
        }
        let bench = generate_benchmark(&records);
        assert!(reproduces_trace(&records, &bench));
        assert!(bench.compression_ratio() <= 2.0);
    }

    #[test]
    fn empty_trace_yields_empty_benchmark() {
        let bench = generate_benchmark(&[]);
        assert!(bench.program.is_empty());
        assert_eq!(bench.original_ops, 0);
    }
}
