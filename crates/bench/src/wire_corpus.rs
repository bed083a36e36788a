//! Mutation corpus for the network wire protocol
//! (`patdnn_serve::wire`).
//!
//! The wire codec makes the same promise the artifact codec does ([see
//! `crate::corpus`]): **no byte stream coming off a socket reaches the
//! serving layer unless it decodes into a well-formed, bounds-checked
//! frame** — and nothing a hostile or corrupted peer sends may panic
//! the process or trigger an unbounded allocation. This module attacks
//! that promise mechanically, with the artifact corpus's recipe
//! applied to framed streams:
//!
//! - **Base streams** — every frame variant the protocol defines,
//!   encoded with representative payloads: all three priority classes,
//!   zero / finite / saturating deadlines, small and multi-dimensional
//!   tensors with adversarial float values (NaN, infinities,
//!   subnormals — stored as raw bits, so they must round-trip), reject
//!   frames for every frozen `ServeError` code, and the connection
//!   handshake itself.
//! - **Byte track** — single-byte flips (`^0xFF` and `^0x01`) at
//!   evenly spread offsets plus truncation cuts, exactly like the
//!   artifact corpus. Every mutant must end in one of two states:
//!   *decode-rejected* with a typed [`WireError`] (counted per
//!   variant), or *benign* — it decodes into some frame and re-encodes
//!   **bit-identically** (the flip landed in represented data: an id,
//!   a tensor bit pattern, a priority byte that named another valid
//!   class). A panic or a lossy "benign" decode is a corpus failure.
//!
//! No mutant is ever dispatched to a server: the harness stops at
//! decode (+ re-encode for benign mutants), so `executed` stays zero
//! by construction. Everything is deterministic — no RNG, no clock —
//! so a regression names the exact mutant that slipped through.
//!
//! Run via `repro wire-corpus` or the `wire_corpus` integration test
//! (quick mode).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use patdnn_serve::wire::{self, Frame, WireError, MAX_FRAME_LEN, WIRE_MAGIC};
use patdnn_serve::{Priority, ServeError};
use patdnn_tensor::Tensor;

use crate::corpus::CorpusReport;

/// A deterministic tensor with adversarial float payloads: NaN,
/// infinities, a subnormal, and ordinary values, cycled over `shape`.
fn adversarial_tensor(shape: &[usize]) -> Tensor {
    let pattern = [
        0.0f32,
        -0.0,
        1.5,
        -3.25e7,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 2.0, // subnormal
        f32::MAX,
    ];
    let len: usize = shape.iter().product();
    let data: Vec<f32> = (0..len).map(|i| pattern[i % pattern.len()]).collect();
    Tensor::from_vec(shape, data).expect("adversarial tensor")
}

/// Every frozen error variant, with payloads a reject frame carries.
/// The nested compile/artifact/quant errors (codes 11–13) are rebuilt
/// from their frozen codes — exactly how a peer reconstructs them.
fn all_serve_errors() -> Vec<ServeError> {
    let mut errors = vec![
        ServeError::UnknownModel("ghost".into()),
        ServeError::QueueFull,
        ServeError::QueueClosed,
        ServeError::ShuttingDown,
        ServeError::Expired {
            missed_by: Duration::from_micros(12_345),
        },
        ServeError::Cancelled,
        ServeError::Shed {
            retry_after_hint: Duration::from_millis(7),
        },
        ServeError::MissingInput,
        ServeError::Closed,
        ServeError::ShapeMismatch {
            expected: vec![3, 8, 8],
            got: vec![1, 28, 28],
        },
        ServeError::Internal("worker fault: slot 3 poisoned".into()),
    ];
    for code in [11u16, 12, 13] {
        errors.push(ServeError::from_code(code).expect("frozen code"));
    }
    errors
}

/// One base byte stream the byte track mutates.
struct Base {
    label: String,
    bytes: Vec<u8>,
    /// Handshake streams are classified with the handshake reader;
    /// frame streams with `read_frame`.
    handshake: bool,
}

/// Builds every base stream: the handshake plus one framed encoding of
/// each representative frame.
fn build_bases(report: &mut CorpusReport) -> Vec<Base> {
    let mut frames: Vec<(String, Frame)> = Vec::new();
    for (p_idx, priority) in [Priority::Interactive, Priority::Standard, Priority::Batch]
        .into_iter()
        .enumerate()
    {
        for (d_idx, deadline_us) in [0u64, 250_000, u64::MAX].into_iter().enumerate() {
            frames.push((
                format!("infer p{p_idx} d{d_idx}"),
                Frame::Infer {
                    id: 0x0102_0304_0506_0708,
                    model: "vgg_small".into(),
                    priority,
                    deadline_us,
                    input: adversarial_tensor(&[1, 3, 8, 8]),
                },
            ));
        }
    }
    frames.push((
        "infer rank4".into(),
        Frame::Infer {
            id: 2,
            model: "m".into(),
            priority: Priority::Standard,
            deadline_us: 1,
            input: adversarial_tensor(&[2, 3, 4, 5]),
        },
    ));
    frames.push(("cancel".into(), Frame::Cancel { id: u64::MAX }));
    frames.push(("ping".into(), Frame::Ping { token: 0xDEAD_BEEF }));
    frames.push(("shutdown drain".into(), Frame::Shutdown { drain: true }));
    frames.push(("shutdown now".into(), Frame::Shutdown { drain: false }));
    frames.push((
        "completed".into(),
        Frame::Completed {
            id: 3,
            latency_us: 1_234,
            batch_size: 8,
            output: adversarial_tensor(&[1, 10]),
        },
    ));
    for err in all_serve_errors() {
        frames.push((
            format!("reject code {}", err.code()),
            Frame::reject(9, &err),
        ));
    }
    frames.push((
        "pong".into(),
        Frame::Pong {
            token: 7,
            queue_depth: 42,
            in_flight: 3,
            models: 2,
        },
    ));
    frames.push(("shutdown-ack".into(), Frame::ShutdownAck));

    let mut bases = Vec::new();
    let mut handshake = Vec::new();
    wire::write_handshake(&mut handshake).expect("handshake encodes");
    bases.push(Base {
        label: "handshake".into(),
        bytes: handshake,
        handshake: true,
    });
    for (label, frame) in frames {
        let mut bytes = Vec::new();
        wire::write_frame(&mut bytes, &frame).expect("frame encodes");
        bases.push(Base {
            label,
            bytes,
            handshake: false,
        });
    }
    report.artifacts = bases.len();
    bases
}

fn wire_error_class(e: &WireError) -> String {
    match e {
        WireError::BadMagic => "wire:bad-magic".into(),
        WireError::UnsupportedVersion(_) => "wire:unsupported-version".into(),
        WireError::Truncated => "wire:truncated".into(),
        WireError::Oversize { .. } => "wire:oversize".into(),
        WireError::UnknownFrame(_) => "wire:unknown-frame".into(),
        WireError::Malformed(_) => "wire:malformed".into(),
        WireError::Io(_) => "wire:io".into(),
    }
}

/// Reads a full handshake the way the net listener does: sniff the 4
/// magic bytes, then validate the version.
fn read_full_handshake(mut reader: &[u8]) -> Result<u16, WireError> {
    let mut magic = [0u8; 4];
    std::io::Read::read_exact(&mut reader, &mut magic)?;
    if &magic != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    wire::read_handshake_version(&mut reader)
}

/// Decodes one mutant and records its outcome. The codec holds its
/// promise iff the mutant is typed-rejected or decodes into a frame
/// that re-encodes bit-identically to the bytes consumed.
fn classify(label: &str, bytes: &[u8], handshake: bool, report: &mut CorpusReport) {
    report.mutants += 1;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if handshake {
            // A valid mutated handshake has no frame to re-encode;
            // represent success as None.
            read_full_handshake(bytes).map(|_| None)
        } else {
            let mut reader = bytes;
            wire::read_frame(&mut reader).map(|frame| Some((frame, reader.len())))
        }
    }));
    match outcome {
        Err(_) => {
            report.panics += 1;
            report
                .failures
                .push(format!("{label}: decode PANICKED on mutated bytes"));
        }
        Ok(Err(e)) => {
            report.decode_rejected += 1;
            *report.per_class.entry(wire_error_class(&e)).or_insert(0) += 1;
        }
        Ok(Ok(None)) => {
            // A handshake mutant that still read a supported version:
            // only possible for flips that left magic+version valid.
            report.benign += 1;
        }
        Ok(Ok(Some((frame, remaining)))) => {
            let consumed = &bytes[..bytes.len() - remaining];
            let mut reencoded = Vec::new();
            match wire::write_frame(&mut reencoded, &frame) {
                Ok(()) if reencoded == consumed => report.benign += 1,
                Ok(()) => report.failures.push(format!(
                    "{label}: lossy benign decode ({} consumed bytes re-encode to {})",
                    consumed.len(),
                    reencoded.len()
                )),
                Err(e) => report
                    .failures
                    .push(format!("{label}: decoded frame fails to re-encode: {e}")),
            }
        }
    }
}

/// The byte track: flips and truncations at evenly spread offsets,
/// always covering offset 0 and the final byte.
fn byte_track(bases: &[Base], quick: bool, report: &mut CorpusReport) {
    let flips = if quick { 40 } else { 160 };
    let cuts = if quick { 12 } else { 40 };
    for base in bases {
        let n = base.bytes.len();
        for k in 0..flips.min(n) {
            let pos = if flips >= n {
                k
            } else {
                k * (n - 1) / (flips - 1)
            };
            for mask in [0xFFu8, 0x01] {
                let mut mutant = base.bytes.clone();
                mutant[pos] ^= mask;
                classify(
                    &format!("{} flip@{pos}^{mask:#04x}", base.label),
                    &mutant,
                    base.handshake,
                    report,
                );
            }
        }
        for k in 0..cuts.min(n) {
            let cut = if cuts >= n {
                k
            } else {
                k * (n - 1) / (cuts - 1)
            };
            classify(
                &format!("{} cut@{cut}", base.label),
                &base.bytes[..cut],
                base.handshake,
                report,
            );
        }
    }
}

/// Hand-crafted streams aimed at the codec's allocation and structure
/// guards: each must be refused with the named typed error *before*
/// any large allocation happens.
fn crafted_track(report: &mut CorpusReport) {
    let mut crafted: Vec<(String, Vec<u8>)> = Vec::new();

    // A length prefix far beyond the frame cap.
    let mut huge = ((MAX_FRAME_LEN as u64 + 1) as u32).to_le_bytes().to_vec();
    huge.extend_from_slice(&[0u8; 16]);
    crafted.push(("crafted oversize-frame-len".into(), huge));

    // An unknown frame tag.
    let mut unknown = 1u32.to_le_bytes().to_vec();
    unknown.push(0x7F);
    crafted.push(("crafted unknown-tag".into(), unknown));

    // An infer frame whose tensor claims ~u32::MAX-element dimensions:
    // the element-count guard must fire before the data allocation.
    let mut base = Vec::new();
    wire::write_frame(
        &mut base,
        &Frame::Infer {
            id: 1,
            model: "m".into(),
            priority: Priority::Standard,
            deadline_us: 0,
            input: adversarial_tensor(&[2, 2]),
        },
    )
    .expect("encodes");
    // Tensor header sits after: len(4) tag(1) id(8) name_len(2)+1 prio(1)
    // deadline(8) → ndim byte at a fixed offset; forge both u32 dims
    // to u32::MAX.
    let ndim_off = 4 + 1 + 8 + 2 + 1 + 1 + 8;
    let mut forged = base.clone();
    forged[ndim_off + 1..ndim_off + 5].copy_from_slice(&u32::MAX.to_le_bytes());
    forged[ndim_off + 5..ndim_off + 9].copy_from_slice(&u32::MAX.to_le_bytes());
    crafted.push(("crafted tensor-element-bomb".into(), forged));

    // Zero-dimension tensor.
    let mut zero_dim = base.clone();
    zero_dim[ndim_off + 1..ndim_off + 5].copy_from_slice(&0u32.to_le_bytes());
    crafted.push(("crafted tensor-zero-dim".into(), zero_dim));

    // A handshake claiming a future protocol version.
    let mut future = Vec::new();
    wire::write_handshake(&mut future).expect("handshake encodes");
    let version_off = future.len() - 2;
    future[version_off..].copy_from_slice(&(wire::WIRE_VERSION + 1).to_le_bytes());
    crafted.push(("crafted future-version".to_string(), future));

    for (label, bytes) in crafted {
        let handshake = label.contains("future-version");
        classify(&label, &bytes, handshake, report);
    }
}

/// Runs the wire corpus. `quick` shrinks the flip/cut density for the
/// tier-1 integration test; CI runs the full density.
pub fn run(quick: bool) -> CorpusReport {
    let mut report = CorpusReport {
        title: "wire-corpus",
        ..CorpusReport::default()
    };
    let bases = build_bases(&mut report);

    // Sanity: every base stream must decode clean before mutation, and
    // reject frames must rebuild the exact frozen code they carry.
    for base in &bases {
        let ok = if base.handshake {
            read_full_handshake(&base.bytes).is_ok() && base.bytes.len() == WIRE_MAGIC.len() + 2
        } else {
            let mut reader = &base.bytes[..];
            wire::read_frame(&mut reader).is_ok() && reader.is_empty()
        };
        if !ok {
            report
                .failures
                .push(format!("base {} does not decode cleanly", base.label));
        }
    }
    for err in all_serve_errors() {
        let frame = Frame::reject(1, &err);
        let mut bytes = Vec::new();
        wire::write_frame(&mut bytes, &frame).expect("encodes");
        let mut reader = &bytes[..];
        match wire::read_frame(&mut reader) {
            Ok(Frame::Reject { code, .. }) if code == err.code() => {}
            other => report.failures.push(format!(
                "reject frame for code {} decoded to {other:?}",
                err.code()
            )),
        }
    }

    byte_track(&bases, quick, &mut report);
    crafted_track(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_wire_corpus_is_clean_and_covers_both_outcomes() {
        let report = run(true);
        assert!(report.is_ok(), "wire corpus failures:\n{report}");
        assert!(report.mutants > 300, "corpus too small:\n{report}");
        assert!(report.decode_rejected > 0, "no rejects:\n{report}");
        assert!(report.benign > 0, "no benign mutants:\n{report}");
        // The allocation guards must have fired.
        assert!(
            report.per_class.contains_key("wire:oversize"),
            "no oversize rejection:\n{report}"
        );
    }
}
