//! Network state persistence, plus GEMM-capture wire codecs.
//!
//! [`save_state`]/[`load_state`] use a deliberately simple binary
//! container (`PPNNSTA1` magic, per-tensor shape + little-endian `f32`
//! payloads) holding a network's parameters **plus** its non-trainable
//! buffers (batch-norm running statistics). This is the bit-exact
//! inference state of a trained network, and what the pipeline's
//! training cache persists: restoring parameters alone would change
//! batch-norm inference outputs. Both work through any `Read`/`Write`,
//! so callers can target files, buffers or pipes; note that a `&mut`
//! reference to a reader/writer also implements the trait and can be
//! passed here.
//!
//! [`write_captures`]/[`read_captures`] are the bit-exact wire codecs
//! for [`GemmCapture`] traces, so captured forward passes can live in
//! the same content-addressed store as every other pipeline artifact.

use crate::layers::GemmCapture;
use crate::model::Network;
use crate::tensor::Tensor;
use charstore::wire::{self, Reader};
use std::io::{self, Read, Write};

const STATE_MAGIC: &[u8; 8] = b"PPNNSTA1";

/// Writes every trainable parameter *and* every non-trainable state
/// buffer of `net` to `w` — the complete inference state of a trained
/// network: the parameter count, then per parameter its rank, shape and
/// little-endian `f32` payload, then the buffer count and per buffer
/// its length and payload.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn save_state<W: Write>(net: &mut Network, mut w: W) -> io::Result<()> {
    let mut tensors: Vec<(Vec<usize>, Vec<f32>)> = Vec::new();
    net.visit_params(&mut |p| {
        tensors.push((p.value.shape().to_vec(), p.value.data().to_vec()));
    });
    let mut buffers: Vec<Vec<f32>> = Vec::new();
    net.visit_buffers(&mut |b| buffers.push(b.clone()));
    w.write_all(STATE_MAGIC)?;
    w.write_all(&(tensors.len() as u64).to_le_bytes())?;
    for (shape, data) in &tensors {
        w.write_all(&(shape.len() as u64).to_le_bytes())?;
        for &dim in shape {
            w.write_all(&(dim as u64).to_le_bytes())?;
        }
        for &v in data {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.write_all(&(buffers.len() as u64).to_le_bytes())?;
    for buf in &buffers {
        w.write_all(&(buf.len() as u64).to_le_bytes())?;
        for &v in buf {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Upper bound on tensors per file: far above any real model here, far
/// below anything that could be used to exhaust memory via the header.
const MAX_TENSORS: u64 = 1 << 20;
/// Upper bound on tensor rank.
const MAX_RANK: u64 = 16;
/// Upper bound on elements per tensor (4 GiB of f32 payload).
const MAX_ELEMENTS: u64 = 1 << 30;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one 8-byte header field (magic, count, rank, shape or length).
/// Input that ends inside a field is truncated, so the short read is
/// `InvalidData` like every other malformed input, not `UnexpectedEof`.
fn read_field<R: Read>(r: &mut R, what: &str) -> io::Result<[u8; 8]> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => invalid(format!("truncated {what}")),
        _ => e,
    })?;
    Ok(buf)
}

fn read_u64<R: Read>(r: &mut R, what: &str) -> io::Result<u64> {
    read_field(r, what).map(u64::from_le_bytes)
}

/// Reads the parameter tensor list of a state file, with the full
/// hardening discipline (see [`load_state`]).
fn read_tensors<R: Read>(r: &mut R) -> io::Result<Vec<Tensor>> {
    let count64 = read_u64(r, "tensor count")?;
    if count64 > MAX_TENSORS {
        return Err(invalid(format!(
            "implausible tensor count {count64} (max {MAX_TENSORS})"
        )));
    }
    let count = count64 as usize;

    let mut tensors: Vec<Tensor> = Vec::new();
    for idx in 0..count {
        let rank = read_u64(r, "tensor rank")?;
        if rank > MAX_RANK {
            return Err(invalid(format!(
                "tensor {idx}: implausible rank {rank} (max {MAX_RANK})"
            )));
        }
        let mut shape = Vec::with_capacity(rank as usize);
        let mut len: u64 = 1;
        for _ in 0..rank {
            let dim = read_u64(r, "tensor shape")?;
            len = len
                .checked_mul(dim)
                .filter(|&l| l <= MAX_ELEMENTS)
                .ok_or_else(|| {
                    invalid(format!(
                        "tensor {idx}: element count overflows {MAX_ELEMENTS}"
                    ))
                })?;
            shape.push(dim as usize);
        }
        let data = read_f32_payload(r, len, &format!("tensor {idx}"))?;
        tensors.push(Tensor::from_vec(&shape, data));
    }
    Ok(tensors)
}

/// Bounded `f32` payload read: the buffer grows with the bytes actually
/// present, so a huge declared length on a short file fails with
/// `InvalidData` instead of allocating `len` elements up front.
fn read_f32_payload<R: Read>(r: &mut R, len: u64, what: &str) -> io::Result<Vec<f32>> {
    let byte_len = len * 4;
    let mut bytes = Vec::new();
    r.by_ref().take(byte_len).read_to_end(&mut bytes)?;
    if bytes.len() as u64 != byte_len {
        return Err(invalid(format!(
            "{what}: payload truncated ({} of {byte_len} bytes)",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

/// Loads decoded parameters and buffers into `net`: all or nothing.
/// Every parameter shape and buffer length is checked before the first
/// assignment, so a file that does not fit leaves `net` exactly as it
/// was.
fn assign(net: &mut Network, tensors: Vec<Tensor>, buffers: &[Vec<f32>]) -> io::Result<()> {
    let mut shapes: Vec<Vec<usize>> = Vec::new();
    net.visit_params(&mut |p| shapes.push(p.value.shape().to_vec()));
    if shapes.len() != tensors.len() {
        return Err(invalid(format!(
            "file has {} tensors, network has {} parameters",
            tensors.len(),
            shapes.len()
        )));
    }
    for (idx, (shape, t)) in shapes.iter().zip(&tensors).enumerate() {
        if shape[..] != *t.shape() {
            return Err(invalid(format!(
                "parameter {idx} shape {shape:?} != file shape {:?}",
                t.shape()
            )));
        }
    }
    let mut lens: Vec<usize> = Vec::new();
    net.visit_buffers(&mut |b| lens.push(b.len()));
    if lens.len() != buffers.len() {
        return Err(invalid(format!(
            "file has {} buffers, network has {} buffers",
            buffers.len(),
            lens.len()
        )));
    }
    for (idx, (&len, decoded)) in lens.iter().zip(buffers).enumerate() {
        if len != decoded.len() {
            return Err(invalid(format!(
                "buffer {idx} length {len} != file length {}",
                decoded.len()
            )));
        }
    }
    let mut decoded = buffers.iter();
    net.visit_buffers(&mut |b| b.copy_from_slice(decoded.next().expect("counts checked")));
    let mut tensors = tensors.into_iter();
    net.visit_params(&mut |p| p.value = tensors.next().expect("counts checked"));
    Ok(())
}

/// Reads a full network state written by [`save_state`] into `net`,
/// which must have the identical structure (same parameters *and* the
/// same buffer layout).
///
/// Hardened against hostile or truncated input: the `u64` tensor
/// count, rank, shape, buffer count and buffer length fields are
/// bounded *before* any allocation (a corrupted count can never trigger
/// a huge `Vec::with_capacity`), payload buffers grow only as bytes
/// actually arrive, input that ends inside any field is truncated, and
/// trailing bytes after the last buffer are rejected. Nothing is
/// assigned until the whole file has decoded and every shape and
/// buffer length matches, so on any error `net` is left untouched.
///
/// # Errors
///
/// Returns an error on I/O failure, bad magic, implausible or
/// truncated contents, trailing bytes, or structure mismatch — all
/// malformed-input cases as [`io::ErrorKind::InvalidData`].
pub fn load_state<R: Read>(net: &mut Network, mut r: R) -> io::Result<()> {
    if &read_field(&mut r, "magic")? != STATE_MAGIC {
        return Err(invalid("not a PowerPruning network state file"));
    }
    let tensors = read_tensors(&mut r)?;

    let buf_count = read_u64(&mut r, "buffer count")?;
    if buf_count > MAX_TENSORS {
        return Err(invalid(format!(
            "implausible buffer count {buf_count} (max {MAX_TENSORS})"
        )));
    }
    let mut buffers: Vec<Vec<f32>> = Vec::new();
    for idx in 0..buf_count {
        let len = read_u64(&mut r, "buffer length")?;
        if len > MAX_ELEMENTS {
            return Err(invalid(format!(
                "buffer {idx}: implausible length {len} (max {MAX_ELEMENTS})"
            )));
        }
        buffers.push(read_f32_payload(&mut r, len, &format!("buffer {idx}"))?);
    }
    if r.read(&mut [0u8; 1])? != 0 {
        return Err(invalid("trailing bytes after the last buffer"));
    }
    assign(net, tensors, &buffers)
}

/// Encodes a capture trace — the quantized GEMM operand streams of one
/// forward pass — bit-exactly onto `out`.
pub fn write_captures(captures: &[GemmCapture], out: &mut Vec<u8>) {
    wire::put_usize(out, captures.len());
    for c in captures {
        wire::put_str(out, &c.layer);
        wire::put_usize(out, c.m);
        wire::put_usize(out, c.k);
        wire::put_usize(out, c.n);
        // i8 codes share the u8 byte representation.
        wire::put_usize(out, c.weight_codes.len());
        out.extend(c.weight_codes.iter().map(|&w| w as u8));
        wire::put_usize(out, c.act_codes.len());
        out.extend_from_slice(&c.act_codes);
    }
}

/// Decodes a capture trace written by [`write_captures`].
///
/// Hardened like [`load_state`]: counts are bounded against the
/// remaining input before any allocation, and each GEMM's code vectors
/// must match its declared `m×k` / `k×n` geometry.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on truncation, implausible
/// counts or geometry mismatches.
pub fn read_captures(r: &mut Reader<'_>) -> io::Result<Vec<GemmCapture>> {
    // Each capture costs at least the three u64 dims + two u64 lengths
    // + the u64 layer-name length = 48 bytes.
    let count = r.bounded_len(48)?;
    let mut out = Vec::with_capacity(count);
    for idx in 0..count {
        let layer = r.str()?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
        let n = r.u64()? as usize;
        let w_len = r.bounded_len(1)?;
        let weight_codes: Vec<i8> = r.take(w_len)?.iter().map(|&b| b as i8).collect();
        let a_len = r.bounded_len(1)?;
        let act_codes: Vec<u8> = r.take(a_len)?.to_vec();
        let geometry_ok = m.checked_mul(k).is_some_and(|mk| mk == weight_codes.len())
            && k.checked_mul(n).is_some_and(|kn| kn == act_codes.len());
        if !geometry_ok {
            return Err(wire::invalid(format!(
                "capture {idx}: geometry {m}x{k}x{n} does not match code vectors ({}, {})",
                weight_codes.len(),
                act_codes.len()
            )));
        }
        out.push(GemmCapture {
            layer,
            weight_codes,
            act_codes,
            m,
            k,
            n,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn save_load_round_trips() {
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let x = Tensor::full(&[1, 1, 8, 8], 0.3);
        let before = net.predict(&x);

        let mut buf = Vec::new();
        save_state(&mut net, &mut buf).expect("save");

        let mut other = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(99));
        assert_ne!(other.predict(&x).data(), before.data());
        load_state(&mut other, buf.as_slice()).expect("load");
        assert_eq!(other.predict(&x).data(), before.data());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let err = load_state(&mut net, &b"NOTMAGIC"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn structure_mismatch_is_rejected() {
        let mut a = models::tiny_cnn("a", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let mut state = Vec::new();
        save_state(&mut a, &mut state).expect("save state");

        // A rejected load leaves the target untouched, although every
        // parameter before the classifier would fit.
        let mut target = models::tiny_cnn("b", 1, 8, 5, &mut StdRng::seed_from_u64(5));
        let mut before = Vec::new();
        save_state(&mut target, &mut before).expect("save state");
        assert!(load_state(&mut target, state.as_slice()).is_err());
        let mut after = Vec::new();
        save_state(&mut target, &mut after).expect("save state");
        assert_eq!(after, before, "a rejected load changed the network");
    }

    #[test]
    fn truncated_file_is_rejected() {
        // Every strict prefix of a state file is truncated input,
        // wherever the cut falls: `InvalidData`, with the target network
        // untouched.
        let mut source = models::tiny_cnn("a", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let mut state = Vec::new();
        save_state(&mut source, &mut state).expect("save state");
        let mut target = models::tiny_cnn("a", 1, 8, 3, &mut StdRng::seed_from_u64(99));
        let mut before = Vec::new();
        save_state(&mut target, &mut before).expect("save state");
        for cut in 0..state.len() {
            let err = load_state(&mut target, &state[..cut]).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "state cut at {cut}: {err}"
            );
        }
        let mut after = Vec::new();
        save_state(&mut target, &mut after).expect("save state");
        assert_eq!(after, before, "a truncated load changed the network");
    }

    #[test]
    fn hostile_tensor_count_is_rejected_without_allocation() {
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let mut buf = STATE_MAGIC.to_vec();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = load_state(&mut net, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("implausible tensor count"));
    }

    #[test]
    fn hostile_rank_is_rejected() {
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let mut buf = STATE_MAGIC.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes()); // one tensor
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd rank
        let err = load_state(&mut net, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("implausible rank"));
    }

    #[test]
    fn overflowing_shape_is_rejected_without_allocation() {
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let mut buf = STATE_MAGIC.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes()); // one tensor
        buf.extend_from_slice(&2u64.to_le_bytes()); // rank 2
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = load_state(&mut net, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn huge_declared_payload_on_short_file_is_invalid_data() {
        // A shape claiming ~1 GiB of f32s backed by 8 actual bytes must
        // fail via the bounded read, not allocate the declared size.
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let mut buf = STATE_MAGIC.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes()); // rank 1
        buf.extend_from_slice(&(1u64 << 28).to_le_bytes()); // 2^28 elements
        buf.extend_from_slice(&[0u8; 8]); // only 8 payload bytes present
        let err = load_state(&mut net, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut net = models::tiny_cnn("s", 1, 8, 3, &mut StdRng::seed_from_u64(4));
        let mut buf = Vec::new();
        save_state(&mut net, &mut buf).expect("save");
        buf.push(0xab);
        let err = load_state(&mut net, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing"));
    }

    /// A network whose inference behaviour depends on buffers as well as
    /// parameters (batch-norm running statistics).
    fn bn_net(seed: u64) -> Network {
        use crate::layers::{BatchNorm2d, Conv2d, QuantReLU};
        use crate::model::Sequential;
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(
            Sequential::new("bn-net")
                .with(Conv2d::new("c1", 1, 4, 3, 1, 1, 1, &mut rng))
                .with(BatchNorm2d::new("bn1", 4))
                .with(QuantReLU::new("r1", 6.0)),
        )
    }

    #[test]
    fn state_round_trip_restores_batchnorm_buffers() {
        let mut net = bn_net(7);
        // A few training passes move the running statistics off their
        // initial values and leave the parameters as they were.
        let x = Tensor::full(&[2, 1, 8, 8], 0.7);
        for _ in 0..3 {
            let _ = net.forward_train(&x);
        }
        let before = net.predict(&x);

        let mut buf = Vec::new();
        save_state(&mut net, &mut buf).expect("save");

        // The same parameters without the running statistics: a fresh
        // net built with the same seed.
        let mut params_only = bn_net(7);
        assert_ne!(
            params_only.predict(&x).data(),
            before.data(),
            "parameters alone must miss the running statistics"
        );

        let mut full = bn_net(99);
        load_state(&mut full, buf.as_slice()).expect("load state");
        assert_eq!(full.predict(&x).data(), before.data());
    }

    #[test]
    fn state_buffer_length_mismatch_is_rejected() {
        let mut a = bn_net(1);
        let mut buf = Vec::new();
        save_state(&mut a, &mut buf).expect("save");
        use crate::layers::{BatchNorm2d, Conv2d};
        use crate::model::Sequential;
        let mut rng = StdRng::seed_from_u64(2);
        // Same parameter shapes in conv, different batch-norm width.
        let mut b = Network::new(
            Sequential::new("other")
                .with(Conv2d::new("c1", 1, 4, 3, 1, 1, 1, &mut rng))
                .with(BatchNorm2d::new("bn1", 4)),
        );
        // Truncate the last buffer: parameter section intact, buffer
        // section short.
        buf.truncate(buf.len() - 4);
        let err = load_state(&mut b, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn state_rejects_weights_magic() {
        // A valid state body behind the retired parameters-only magic.
        let mut net = bn_net(3);
        let mut buf = Vec::new();
        save_state(&mut net, &mut buf).expect("save");
        buf[..8].copy_from_slice(b"PPNNWTS1");
        let err = load_state(&mut net, buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn sample_captures() -> Vec<GemmCapture> {
        vec![
            GemmCapture {
                layer: "conv1".into(),
                weight_codes: vec![1, -2, 3, -4, 5, -6],
                act_codes: vec![9, 8, 7, 6, 5, 4],
                m: 2,
                k: 3,
                n: 2,
            },
            GemmCapture {
                layer: "fc".into(),
                weight_codes: vec![-128_i8, 127, 0],
                act_codes: vec![255, 0, 1],
                m: 1,
                k: 3,
                n: 1,
            },
        ]
    }

    #[test]
    fn captures_round_trip_bit_exactly() {
        let captures = sample_captures();
        let mut buf = Vec::new();
        write_captures(&captures, &mut buf);
        let mut r = Reader::new(&buf);
        let back = read_captures(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        assert_eq!(back, captures);
        // Empty traces round-trip too.
        let mut empty = Vec::new();
        write_captures(&[], &mut empty);
        let mut r = Reader::new(&empty);
        assert!(read_captures(&mut r).expect("decode empty").is_empty());
    }

    #[test]
    fn captures_geometry_mismatch_is_rejected() {
        let mut captures = sample_captures();
        captures[0].m = 3; // 3×3 declared, 6 weight codes present
        let mut buf = Vec::new();
        write_captures(&captures, &mut buf);
        let mut r = Reader::new(&buf);
        let err = read_captures(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("geometry"));
    }

    #[test]
    fn captures_hostile_count_is_rejected() {
        let mut buf = Vec::new();
        wire::put_usize(&mut buf, u32::MAX as usize); // absurd capture count
        let mut r = Reader::new(&buf);
        let err = read_captures(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
