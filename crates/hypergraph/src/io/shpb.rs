//! `.shpb` — the compact binary graph container.
//!
//! A little-endian sectioned format holding exactly the in-memory CSR representation of a
//! [`BipartiteGraph`], so loading one is a size check plus a handful of bulk array decodes —
//! no tokenizing, no dedup, no counting sort. Warm starts (`shp replay`/`serve`/`partition`
//! on a `.shpb` input) skip parsing entirely.
//!
//! # Layout (version 2)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `b"SHPB"` |
//! | 4      | 4    | `u32` format version (currently 2) |
//! | 8      | 8    | `u64` number of query vertices `Q` |
//! | 16     | 8    | `u64` number of data vertices `D` |
//! | 24     | 8    | `u64` number of pins (bipartite edges) `P` |
//! | 32     | 4    | `u32` flags (bit 0: data weights present) |
//! | 36     | 4    | `u32` reserved (zero) |
//! | 40     | 8    | `u64` FNV-1a checksum of bytes 0..40 |
//! | 48     | 8·(Q+1) | query CSR offsets (`u64`) |
//! |        | 4·P  | query adjacency (`u32` data ids) |
//! |        | 8·(D+1) | data CSR offsets (`u64`) |
//! |        | 4·P  | data adjacency (`u32` query ids) |
//! |        | 4·D  | data weights (`u32`), only when flag bit 0 is set |
//! |        | 8    | `u64` `BodyHasher` checksum of all section bytes (version ≥ 2) |
//!
//! Version 2 (this revision) appends an 8-byte body-checksum trailer after the sections: a
//! fast four-lane multiply-xor hash of every section byte, computed streamingly by the
//! writers. Placing it at the *end* keeps every section at its version-1 offset, so version-1
//! containers remain readable (they simply have no trailer). The trailer is what lets the
//! memory-mapped open below detect any body corruption in one sequential pass instead of the
//! copying reader's full structural re-validation.
//!
//! Every failure mode is a typed error: corrupt or truncated containers produce
//! [`GraphError::Binary`], a newer format version produces [`GraphError::UnsupportedVersion`].
//! The copying reader validates the structural CSR contract before constructing the graph:
//! offsets monotonic and consistent with `P`, adjacency ids in range, the two directions
//! degree-consistent, and every data vertex's query list in ascending query order (the order
//! the builder's counting sort always emits) — then checks the body trailer. The one property
//! deliberately *not* checked is the ordering of pins **within** a query: graphs built with
//! [`crate::GraphBuilder::without_dedup`] legitimately carry unsorted or duplicate pins, and
//! the container round-trips them verbatim.
//!
//! # Memory-mapped opens and why the borrowed views are sound
//!
//! [`map_shpb_file`] maps the container read-only and serves the graph API straight from the
//! on-disk bytes (zero-copy; a section falls back to a decoded heap copy only when its file
//! offset is misaligned for its element type — in this layout that is exactly the `u64` data
//! offsets when `P` is odd — or on a big-endian host). Validation at open time is:
//!
//! 1. the 48-byte header: magic, version, flag bits, FNV-1a header checksum;
//! 2. the exact file length implied by the header (`Q`/`D`/`P`/flags), so every section
//!    window is in bounds *before* any view is created;
//! 3. both offset arrays in full (`O(Q + D)`): start at 0, monotonic, end at `P`;
//! 4. for version ≥ 2, the body-checksum trailer — one sequential `O(file)` hash pass that
//!    rejects any flipped byte anywhere in the sections. Version-1 containers have no
//!    trailer, so the mapped open falls back to the copying reader's full structural
//!    validation (adjacency ranges, cross-direction degrees, row order) on the mapped bytes.
//!
//! What the v2 mapped open deliberately does **not** re-derive is the cross-direction degree
//! and row-order contract — the checksum already proves the bytes are exactly what a writer
//! (which only serializes structurally valid graphs) produced. The memory-safety argument
//! does not rest on that: all slicing of the mapped region derives from the offset arrays
//! validated in step 3 plus the exact-size check in step 2, so no view can dangle; adjacency
//! entries are plain `u32` *data* for which every bit pattern is valid, and every use of them
//! as an index downstream is bounds-checked by Rust. A forged file with a matching trailer
//! can therefore at worst produce a clean panic or a wrong partition — never an out-of-bounds
//! read. (See `crate::storage` for the mapping-lifetime half of the argument.)

use crate::bipartite::BipartiteGraph;
use crate::error::{GraphError, Result};
use crate::storage::{MmapRegion, Section};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every `.shpb` container.
pub(crate) const MAGIC: [u8; 4] = *b"SHPB";

/// Current (highest readable) format version.
pub const SHPB_VERSION: u32 = 2;

/// First version carrying the 8-byte body-checksum trailer after the sections.
const FIRST_TRAILER_VERSION: u32 = 2;

pub(crate) const HEADER_LEN: usize = 48;
const TRAILER_LEN: usize = 8;
const FLAG_WEIGHTS: u32 = 1;
pub(crate) const STAGING_FLUSH: usize = 64 << 10;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub(crate) fn corrupt(message: impl Into<String>) -> GraphError {
    GraphError::Binary {
        message: message.into(),
    }
}

/// Streaming hash producing the version-2 body-checksum trailer.
///
/// Four independent xor-multiply lanes absorb the input as little-endian `u64` words
/// round-robin (so consecutive words have no data dependency and the compiler can keep all
/// four multiplies in flight), a byte buffer bridges chunk boundaries that are not 8-aligned,
/// and finalization folds the lanes and the total length FNV-style. Roughly an order of
/// magnitude faster than byte-at-a-time FNV-1a — the point, since the mapped open hashes the
/// whole file. Not cryptographic: it detects accidental corruption, not forgery (the module
/// docs explain why forgery still cannot break memory safety).
#[derive(Debug, Clone)]
pub(crate) struct BodyHasher {
    lanes: [u64; 4],
    words: u64,
    pending: [u8; 8],
    pending_len: usize,
    total: u64,
}

impl BodyHasher {
    const LANE_SEEDS: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];

    pub(crate) fn new() -> Self {
        BodyHasher {
            lanes: Self::LANE_SEEDS,
            words: 0,
            pending: [0; 8],
            pending_len: 0,
            total: 0,
        }
    }

    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            let word = u64::from_le_bytes(self.pending);
            self.absorb(word);
            self.pending_len = 0;
        }
        // Fast path: 32-byte blocks. Each block advances the word count by 4, so the lane
        // each of its words lands in is fixed for the whole loop — the four xor-multiply
        // chains stay in registers with no per-word bookkeeping, and the math is *identical*
        // to absorbing the words one at a time (word `i` still feeds lane `i mod 4`).
        let lane_base = (self.words & 3) as usize;
        let mut lanes = [
            self.lanes[lane_base],
            self.lanes[(lane_base + 1) & 3],
            self.lanes[(lane_base + 2) & 3],
            self.lanes[(lane_base + 3) & 3],
        ];
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            for (k, lane) in lanes.iter_mut().enumerate() {
                let word = u64::from_le_bytes(
                    block[k * 8..k * 8 + 8].try_into().expect("word is 8 bytes"),
                );
                *lane = (*lane ^ word).wrapping_mul(0x2545_f491_4f6c_dd1d);
            }
            self.words += 4;
        }
        for (k, lane) in lanes.into_iter().enumerate() {
            self.lanes[(lane_base + k) & 3] = lane;
        }
        let mut chunks = blocks.remainder().chunks_exact(8);
        for chunk in &mut chunks {
            self.absorb(u64::from_le_bytes(
                chunk.try_into().expect("chunk is 8 bytes"),
            ));
        }
        let rest = chunks.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    #[inline]
    fn absorb(&mut self, word: u64) {
        let lane = (self.words & 3) as usize;
        self.lanes[lane] = (self.lanes[lane] ^ word).wrapping_mul(0x2545_f491_4f6c_dd1d);
        self.words += 1;
    }

    pub(crate) fn finish(mut self) -> u64 {
        if self.pending_len > 0 {
            self.pending[self.pending_len..].fill(0);
            let word = u64::from_le_bytes(self.pending);
            self.absorb(word);
        }
        let mut hash = self.total ^ 0x9e37_79b9_7f4a_7c15;
        for lane in self.lanes {
            hash = (hash ^ lane).wrapping_mul(0x0000_0100_0000_01b3);
            hash ^= hash >> 32;
        }
        hash
    }
}

/// Encodes the 48-byte header (including its FNV-1a checksum) for the given dimensions.
pub(crate) fn encode_header(
    num_queries: u64,
    num_data: u64,
    num_pins: u64,
    has_weights: bool,
    version: u32,
) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&version.to_le_bytes());
    header[8..16].copy_from_slice(&num_queries.to_le_bytes());
    header[16..24].copy_from_slice(&num_data.to_le_bytes());
    header[24..32].copy_from_slice(&num_pins.to_le_bytes());
    let flags = if has_weights { FLAG_WEIGHTS } else { 0 };
    header[32..36].copy_from_slice(&flags.to_le_bytes());
    // bytes 36..40 are the reserved field, zero.
    let checksum = fnv1a64(&header[..40]);
    header[40..48].copy_from_slice(&checksum.to_le_bytes());
    header
}

/// Writes a graph as a `.shpb` container (current version, with the body trailer).
pub fn write_shpb<W: Write>(graph: &BipartiteGraph, writer: W) -> Result<()> {
    write_shpb_versioned(graph, writer, SHPB_VERSION)
}

/// Writes the container at an explicit format version (version 1 omits the trailer); kept
/// internal so tests can produce genuine v1 files for the back-compat paths.
fn write_shpb_versioned<W: Write>(
    graph: &BipartiteGraph,
    mut writer: W,
    version: u32,
) -> Result<()> {
    let (query_offsets, query_adjacency, data_offsets, data_adjacency, weights) = graph.raw_csr();

    writer.write_all(&encode_header(
        graph.num_queries() as u64,
        graph.num_data() as u64,
        graph.num_edges() as u64,
        weights.is_some(),
        version,
    ))?;

    let mut hasher = BodyHasher::new();
    let mut staging: Vec<u8> = Vec::with_capacity(STAGING_FLUSH + 16);
    write_section(
        &mut writer,
        &mut hasher,
        &mut staging,
        query_offsets,
        u64::to_le_bytes,
    )?;
    write_section(
        &mut writer,
        &mut hasher,
        &mut staging,
        query_adjacency,
        u32::to_le_bytes,
    )?;
    write_section(
        &mut writer,
        &mut hasher,
        &mut staging,
        data_offsets,
        u64::to_le_bytes,
    )?;
    write_section(
        &mut writer,
        &mut hasher,
        &mut staging,
        data_adjacency,
        u32::to_le_bytes,
    )?;
    if let Some(w) = weights {
        write_section(&mut writer, &mut hasher, &mut staging, w, u32::to_le_bytes)?;
    }
    if !staging.is_empty() {
        hasher.update(&staging);
        writer.write_all(&staging)?;
    }
    if version >= FIRST_TRAILER_VERSION {
        writer.write_all(&hasher.finish().to_le_bytes())?;
    }
    writer.flush()?;
    Ok(())
}

/// Appends one array section to the staging buffer element-wise, flushing (to both the writer
/// and the body hasher) every 64 KiB.
fn write_section<W: Write, T: Copy, const N: usize>(
    writer: &mut W,
    hasher: &mut BodyHasher,
    staging: &mut Vec<u8>,
    values: &[T],
    encode: impl Fn(T) -> [u8; N],
) -> std::io::Result<()> {
    for &v in values {
        staging.extend_from_slice(&encode(v));
        if staging.len() >= STAGING_FLUSH {
            hasher.update(staging);
            writer.write_all(staging)?;
            staging.clear();
        }
    }
    Ok(())
}

/// Writes a `.shpb` container to a file path.
pub fn write_shpb_file<P: AsRef<Path>>(graph: &BipartiteGraph, path: P) -> Result<()> {
    write_shpb(graph, std::io::BufWriter::new(std::fs::File::create(path)?))
}

/// Reads a graph from a `.shpb` container.
pub fn read_shpb<R: Read>(mut reader: R) -> Result<BipartiteGraph> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_shpb_bytes(&bytes)
}

/// Reads a `.shpb` container from a file path.
pub fn read_shpb_file<P: AsRef<Path>>(path: P) -> Result<BipartiteGraph> {
    parse_shpb_bytes(&std::fs::read(path)?)
}

/// The decoded and checksum-verified 48-byte header, with the exact file length already
/// checked against the dimensions it declares (so every section window is in bounds).
#[derive(Debug, Clone, Copy)]
struct Header {
    version: u32,
    num_queries: usize,
    num_data: usize,
    num_pins: usize,
    has_weights: bool,
    /// Total size of the section bytes (everything between header and trailer).
    section_bytes: usize,
}

impl Header {
    fn trailer_len(&self) -> usize {
        if self.version >= FIRST_TRAILER_VERSION {
            TRAILER_LEN
        } else {
            0
        }
    }
}

/// Parses the header and checks `total_len` (the full container size) matches it exactly.
/// Shared by the copying reader and the mapped open, so both reject the same corruptions with
/// the same typed errors before touching any section.
fn parse_and_check_header(bytes: &[u8], total_len: usize) -> Result<Header> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "truncated header: {} bytes, need {HEADER_LEN}",
            bytes.len()
        )));
    }
    if bytes[..4] != MAGIC {
        return Err(corrupt(format!(
            "bad magic {:?} (expected {:?})",
            &bytes[..4],
            MAGIC
        )));
    }
    let version = read_u32(bytes, 4);
    if version > SHPB_VERSION {
        return Err(GraphError::UnsupportedVersion {
            found: version,
            supported: SHPB_VERSION,
        });
    }
    if version == 0 {
        return Err(corrupt("invalid format version 0"));
    }
    let stored_checksum = read_u64(bytes, 40);
    let computed = fnv1a64(&bytes[..40]);
    if stored_checksum != computed {
        return Err(corrupt(format!(
            "header checksum mismatch: stored {stored_checksum:#018x}, computed {computed:#018x}"
        )));
    }
    let num_queries = read_u64(bytes, 8);
    let num_data = read_u64(bytes, 16);
    let num_pins = read_u64(bytes, 24);
    let flags = read_u32(bytes, 32);
    if flags & !FLAG_WEIGHTS != 0 {
        return Err(corrupt(format!("unknown flag bits {flags:#010x}")));
    }
    let has_weights = flags & FLAG_WEIGHTS != 0;

    // Validate the declared body size before allocating anything: a corrupt count must fail
    // with a typed error, not an enormous allocation.
    let trailer = if version >= FIRST_TRAILER_VERSION {
        TRAILER_LEN as u128
    } else {
        0
    };
    let expected_body: u128 = (num_queries as u128 + 1) * 8
        + num_pins as u128 * 4
        + (num_data as u128 + 1) * 8
        + num_pins as u128 * 4
        + if has_weights { num_data as u128 * 4 } else { 0 }
        + trailer;
    let actual_body = (total_len - HEADER_LEN) as u128;
    if actual_body < expected_body {
        return Err(corrupt(format!(
            "truncated body: {actual_body} bytes, header declares {expected_body}"
        )));
    }
    if actual_body > expected_body {
        return Err(corrupt(format!(
            "trailing garbage: {actual_body} body bytes, header declares {expected_body}"
        )));
    }
    Ok(Header {
        version,
        num_queries: num_queries as usize,
        num_data: num_data as usize,
        num_pins: num_pins as usize,
        has_weights,
        section_bytes: (expected_body - trailer) as usize,
    })
}

/// Verifies the version-2 body-checksum trailer over the section bytes of `bytes`.
fn verify_body_trailer(bytes: &[u8], header: &Header) -> Result<()> {
    let stored = read_u64(bytes, HEADER_LEN + header.section_bytes);
    let mut hasher = BodyHasher::new();
    hasher.update(&bytes[HEADER_LEN..HEADER_LEN + header.section_bytes]);
    let computed = hasher.finish();
    if stored != computed {
        return Err(corrupt(format!(
            "body checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    Ok(())
}

/// Decodes and fully validates a `.shpb` container held in memory.
pub fn parse_shpb_bytes(bytes: &[u8]) -> Result<BipartiteGraph> {
    let header = parse_and_check_header(bytes, bytes.len())?;
    let num_queries = header.num_queries;
    let num_data = header.num_data;
    let num_pins = header.num_pins;

    let mut pos = HEADER_LEN;
    let query_offsets = take_u64s(bytes, &mut pos, num_queries + 1);
    let query_adjacency = take_u32s(bytes, &mut pos, num_pins);
    let data_offsets = take_u64s(bytes, &mut pos, num_data + 1);
    let data_adjacency = take_u32s(bytes, &mut pos, num_pins);
    let data_weights = header
        .has_weights
        .then(|| take_u32s(bytes, &mut pos, num_data));
    debug_assert_eq!(pos + header.trailer_len(), bytes.len());

    validate_offsets(&query_offsets, num_pins, "query")?;
    validate_offsets(&data_offsets, num_pins, "data")?;
    validate_adjacency(&query_adjacency, num_data, "query adjacency", "data")?;
    validate_adjacency(&data_adjacency, num_queries, "data adjacency", "query")?;
    validate_cross_consistency(
        &query_offsets,
        &query_adjacency,
        &data_offsets,
        &data_adjacency,
    )?;
    if header.version >= FIRST_TRAILER_VERSION {
        verify_body_trailer(bytes, &header)?;
    }

    Ok(BipartiteGraph::from_csr(
        query_offsets,
        query_adjacency,
        data_offsets,
        data_adjacency,
        data_weights,
    ))
}

/// Cross-checks the two adjacency directions: the data-side degrees implied by the query
/// adjacency must equal the data offsets (and symmetrically), so the container cannot smuggle
/// in two inconsistent edge sets; and every data vertex's query list must be in the ascending
/// query order the builder's counting sort always emits, so out-of-order corruption that
/// happens to preserve degrees is still rejected.
fn validate_cross_consistency(
    query_offsets: &[u64],
    query_adjacency: &[u32],
    data_offsets: &[u64],
    data_adjacency: &[u32],
) -> Result<()> {
    let num_queries = query_offsets.len() - 1;
    let num_data = data_offsets.len() - 1;
    let mut data_degree = vec![0u64; num_data];
    for &v in query_adjacency {
        data_degree[v as usize] += 1;
    }
    for v in 0..num_data {
        if data_offsets[v + 1] - data_offsets[v] != data_degree[v] {
            return Err(corrupt(format!(
                "data vertex {v} has degree {} in the query adjacency but {} in the data offsets",
                data_degree[v],
                data_offsets[v + 1] - data_offsets[v]
            )));
        }
    }
    let mut query_degree = vec![0u64; num_queries];
    for v in 0..num_data {
        let row = &data_adjacency[data_offsets[v] as usize..data_offsets[v + 1] as usize];
        let mut previous = 0u32;
        for &q in row {
            if q < previous {
                return Err(corrupt(format!(
                    "data vertex {v}'s query list is not in ascending query order"
                )));
            }
            previous = q;
            query_degree[q as usize] += 1;
        }
    }
    for q in 0..num_queries {
        if query_offsets[q + 1] - query_offsets[q] != query_degree[q] {
            return Err(corrupt(format!(
                "query {q} has degree {} in the data adjacency but {} in the query offsets",
                query_degree[q],
                query_offsets[q + 1] - query_offsets[q]
            )));
        }
    }
    Ok(())
}

/// Opens a `.shpb` container as a memory-mapped, zero-copy [`BipartiteGraph`].
///
/// The returned graph serves the normal accessor API from borrowed views of the on-disk
/// bytes: the heap footprint ([`BipartiteGraph::memory_bytes`]) stays near zero and graph
/// size is bounded by disk, not RAM. Open-time validation and the safety argument are
/// documented at the module level; the short version is that the header, exact file size, and
/// both offset arrays are always validated, and body integrity comes from the version-2
/// checksum trailer (version-1 files, which have no trailer, get the copying reader's full
/// structural validation instead — still without copying the sections).
///
/// # Errors
/// Everything [`read_shpb_file`] rejects is rejected here with the same typed errors.
pub fn map_shpb_file<P: AsRef<Path>>(path: P) -> Result<BipartiteGraph> {
    let region = Arc::new(MmapRegion::map_file(path.as_ref())?);
    map_shpb_region(region)
}

fn map_shpb_region(region: Arc<MmapRegion>) -> Result<BipartiteGraph> {
    let bytes = region.bytes();
    let header = parse_and_check_header(bytes, bytes.len())?;
    let num_queries = header.num_queries;
    let num_data = header.num_data;
    let num_pins = header.num_pins;

    // Section windows. The exact-size check above proved all of them in bounds, so the
    // constructors cannot panic; each one borrows zero-copy or decode-copies on misalignment.
    let mut pos = HEADER_LEN;
    let mut window = |elems: usize, width: usize| {
        let at = pos;
        pos += elems * width;
        at
    };
    let query_offsets =
        Section::<u64>::from_region(&region, window(num_queries + 1, 8), num_queries + 1);
    let query_adjacency = Section::<u32>::from_region(&region, window(num_pins, 4), num_pins);
    let data_offsets = Section::<u64>::from_region(&region, window(num_data + 1, 8), num_data + 1);
    let data_adjacency = Section::<u32>::from_region(&region, window(num_pins, 4), num_pins);
    let data_weights = header
        .has_weights
        .then(|| Section::<u32>::from_region(&region, window(num_data, 4), num_data));

    validate_offsets(&query_offsets, num_pins, "query")?;
    validate_offsets(&data_offsets, num_pins, "data")?;
    if header.version >= FIRST_TRAILER_VERSION {
        // One sequential hash pass proves the section bytes are exactly what a writer
        // produced; the structural cross-checks below would be redundant.
        verify_body_trailer(region.bytes(), &header)?;
    } else {
        // Version-1 containers carry no trailer: fall back to full structural validation on
        // the mapped bytes (the documented slow path for old files).
        validate_adjacency(&query_adjacency, num_data, "query adjacency", "data")?;
        validate_adjacency(&data_adjacency, num_queries, "data adjacency", "query")?;
        validate_cross_consistency(
            &query_offsets,
            &query_adjacency,
            &data_offsets,
            &data_adjacency,
        )?;
    }

    Ok(BipartiteGraph::from_sections(
        query_offsets,
        query_adjacency,
        data_offsets,
        data_adjacency,
        data_weights,
    ))
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds checked"))
}

fn take_u64s(bytes: &[u8], pos: &mut usize, count: usize) -> Vec<u64> {
    let slice = &bytes[*pos..*pos + count * 8];
    *pos += count * 8;
    slice
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect()
}

fn take_u32s(bytes: &[u8], pos: &mut usize, count: usize) -> Vec<u32> {
    let slice = &bytes[*pos..*pos + count * 4];
    *pos += count * 4;
    slice
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")))
        .collect()
}

fn validate_offsets(offsets: &[u64], num_pins: usize, side: &str) -> Result<()> {
    if offsets.first() != Some(&0) {
        return Err(corrupt(format!("{side} offsets do not start at 0")));
    }
    if offsets.windows(2).any(|w| w[1] < w[0]) {
        return Err(corrupt(format!("{side} offsets are not monotonic")));
    }
    let last = *offsets.last().expect("offsets are non-empty");
    if last != num_pins as u64 {
        return Err(corrupt(format!(
            "{side} offsets end at {last} but the header declares {num_pins} pins"
        )));
    }
    Ok(())
}

fn validate_adjacency(adjacency: &[u32], bound: usize, what: &str, target: &str) -> Result<()> {
    for &id in adjacency {
        if id as usize >= bound {
            return Err(corrupt(format!(
                "{what} references {target} vertex {id} out of range (count {bound})"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn figure1() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 5]);
        b.add_query([0u32, 1, 2, 3]);
        b.add_query([3u32, 4, 5]);
        b.build().unwrap()
    }

    fn encode(graph: &BipartiteGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_shpb(graph, &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_graph_and_weights() {
        let plain = figure1();
        assert_eq!(parse_shpb_bytes(&encode(&plain)).unwrap(), plain);

        let weighted = figure1().with_data_weights(vec![1, 2, 3, 4, 5, 6]).unwrap();
        let decoded = parse_shpb_bytes(&encode(&weighted)).unwrap();
        assert_eq!(decoded, weighted);
        assert!(decoded.has_weights());
        assert_eq!(decoded.data_weight(5), 6);
    }

    #[test]
    fn roundtrip_of_the_empty_graph() {
        let empty = GraphBuilder::new().build().unwrap();
        assert_eq!(parse_shpb_bytes(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn writing_is_deterministic() {
        assert_eq!(encode(&figure1()), encode(&figure1()));
    }

    #[test]
    fn every_truncation_is_rejected_without_panicking() {
        let full = encode(&figure1());
        for len in 0..full.len() {
            let err =
                parse_shpb_bytes(&full[..len]).expect_err("every proper prefix must be rejected");
            assert!(
                matches!(err, GraphError::Binary { .. }),
                "prefix of {len} bytes produced {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&figure1());
        bytes.push(0);
        assert!(matches!(
            parse_shpb_bytes(&bytes),
            Err(GraphError::Binary { .. })
        ));
    }

    #[test]
    fn header_corruption_fails_the_checksum() {
        let clean = encode(&figure1());
        // Flip one bit in every header byte that participates in the checksum (skipping the
        // magic and version, which have their own errors).
        for at in 8..40 {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x01;
            let err = parse_shpb_bytes(&bytes).expect_err("corrupt header must be rejected");
            assert!(
                err.to_string().contains("checksum"),
                "byte {at}: expected a checksum failure, got {err}"
            );
        }
    }

    #[test]
    fn bad_magic_and_future_version_are_typed() {
        let clean = encode(&figure1());

        let mut wrong_magic = clean.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            parse_shpb_bytes(&wrong_magic),
            Err(GraphError::Binary { .. })
        ));

        let mut future = clean.clone();
        future[4..8].copy_from_slice(&(SHPB_VERSION + 1).to_le_bytes());
        // Keep the header checksum valid so the version check is what fires.
        let checksum = fnv1a64(&future[..40]);
        future[40..48].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            parse_shpb_bytes(&future),
            Err(GraphError::UnsupportedVersion { found, supported })
                if found == SHPB_VERSION + 1 && supported == SHPB_VERSION
        ));
    }

    #[test]
    fn body_corruption_is_caught_by_csr_validation() {
        let clean = encode(&figure1());
        // Corrupt a query adjacency entry to an out-of-range data id.
        let adjacency_start = HEADER_LEN + (3 + 1) * 8;
        let mut bytes = clean.clone();
        bytes[adjacency_start..adjacency_start + 4].copy_from_slice(&999u32.to_le_bytes());
        let err = parse_shpb_bytes(&bytes).expect_err("out-of-range id must be rejected");
        assert!(err.to_string().contains("out of range"), "{err}");

        // Rewrite one pin to an in-range but wrong data id (query 0's pins [0, 1, 5] become
        // [0, 1, 0]): every id stays in range, but the per-vertex degrees no longer match the
        // data offsets.
        let mut rewritten = clean.clone();
        let third_pin = adjacency_start + 8;
        rewritten[third_pin..third_pin + 4].copy_from_slice(&0u32.to_le_bytes());
        let err = parse_shpb_bytes(&rewritten).expect_err("degree mismatch must be rejected");
        assert!(err.to_string().contains("degree"), "{err}");

        // Swap the two queries inside data vertex 0's list ([0, 1] -> [1, 0]): every degree
        // is preserved, so only the ascending-order check can catch it.
        let data_adjacency_start = HEADER_LEN + (3 + 1) * 8 + 10 * 4 + (6 + 1) * 8;
        let mut disordered = clean.clone();
        for i in 0..4 {
            disordered.swap(data_adjacency_start + i, data_adjacency_start + 4 + i);
        }
        let err = parse_shpb_bytes(&disordered).expect_err("row disorder must be rejected");
        assert!(err.to_string().contains("ascending"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("shp-shpb-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.shpb");
        let g = figure1().with_data_weights(vec![2; 6]).unwrap();
        write_shpb_file(&g, &path).unwrap();
        assert_eq!(read_shpb_file(&path).unwrap(), g);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes `bytes` to a scratch file, maps it, removes the file, returns the result.
    fn map_bytes(bytes: &[u8], tag: &str) -> Result<BipartiteGraph> {
        let path = std::env::temp_dir().join(format!(
            "shp-shpb-map-{}-{tag}-{}.shpb",
            std::process::id(),
            bytes.len()
        ));
        std::fs::write(&path, bytes).unwrap();
        let result = map_shpb_file(&path);
        std::fs::remove_file(&path).ok();
        result
    }

    #[test]
    fn mapped_open_matches_copying_reader_and_owns_no_heap() {
        let g = figure1();
        let bytes = encode(&g);
        let mapped = map_bytes(&bytes, "plain").unwrap();
        assert_eq!(mapped, g);
        assert_eq!(mapped, parse_shpb_bytes(&bytes).unwrap());
        // figure1 has an even pin count, so every section (including the u64 data offsets)
        // is aligned and borrows zero-copy when a real mapping is available.
        if mapped.is_mapped() {
            assert_eq!(mapped.memory_bytes(), 0);
            assert!(mapped.mapped_bytes() > 0);
        }
        // The normal accessors work straight off the mapped bytes.
        assert_eq!(mapped.query_neighbors(1), &[0, 1, 2, 3]);
        assert_eq!(mapped.data_neighbors(0), &[0, 1]);
    }

    #[test]
    fn mapped_open_handles_weights_and_odd_pin_counts() {
        // An odd pin count misaligns the u64 data-offsets section: the fallback copy must
        // kick in for that section and the graph must still read correctly.
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 2]);
        b.add_query([2u32, 3]);
        let g = b
            .build()
            .unwrap()
            .with_data_weights(vec![5, 6, 7, 8])
            .unwrap();
        assert_eq!(
            g.num_edges() % 2,
            1,
            "test graph must have an odd pin count"
        );
        let mapped = map_bytes(&encode(&g), "odd").unwrap();
        assert_eq!(mapped, g);
        assert_eq!(mapped.data_weight(3), 8);
        assert_eq!(mapped.total_data_weight(), 26);
    }

    #[test]
    fn v1_container_still_reads_and_maps() {
        let g = figure1().with_data_weights(vec![1, 2, 3, 4, 5, 6]).unwrap();
        let mut v1 = Vec::new();
        write_shpb_versioned(&g, &mut v1, 1).unwrap();
        assert_eq!(read_u32(&v1, 4), 1, "test must produce a genuine v1 file");
        assert_eq!(parse_shpb_bytes(&v1).unwrap(), g);
        assert_eq!(map_bytes(&v1, "v1").unwrap(), g);

        // The v1 mapped fallback still performs full structural validation.
        let adjacency_start = HEADER_LEN + (3 + 1) * 8;
        let mut corrupt_v1 = v1.clone();
        corrupt_v1[adjacency_start..adjacency_start + 4].copy_from_slice(&999u32.to_le_bytes());
        let err = map_bytes(&corrupt_v1, "v1bad").unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn weights_corruption_is_caught_by_the_body_trailer() {
        // A flipped weights byte is invisible to every structural check — only the trailer
        // can reject it, on both readers.
        let g = figure1().with_data_weights(vec![1, 2, 3, 4, 5, 6]).unwrap();
        let mut bytes = encode(&g);
        let weights_start = bytes.len() - TRAILER_LEN - 6 * 4;
        bytes[weights_start] ^= 0x10;
        let err = parse_shpb_bytes(&bytes).expect_err("copying reader must reject");
        assert!(err.to_string().contains("body checksum"), "{err}");
        let err = map_bytes(&bytes, "wflip").expect_err("mapped open must reject");
        assert!(err.to_string().contains("body checksum"), "{err}");
    }

    #[test]
    fn trailer_corruption_is_rejected() {
        let mut bytes = encode(&figure1());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(parse_shpb_bytes(&bytes)
            .unwrap_err()
            .to_string()
            .contains("body checksum"));
        assert!(map_bytes(&bytes, "tflip")
            .unwrap_err()
            .to_string()
            .contains("body checksum"));
    }

    #[test]
    fn body_hasher_is_chunking_invariant_and_discriminating() {
        let data: Vec<u8> = (0u32..1000).flat_map(|v| v.to_le_bytes()).collect();
        let mut whole = BodyHasher::new();
        whole.update(&data);
        let mut split = BodyHasher::new();
        // Uneven chunk sizes exercise the pending-byte bridge.
        for chunk in data.chunks(13) {
            split.update(chunk);
        }
        assert_eq!(whole.finish(), split.clone().finish());

        let mut flipped = BodyHasher::new();
        let mut copy = data.clone();
        copy[1234] ^= 0x80;
        flipped.update(&copy);
        assert_ne!(split.finish(), flipped.finish());

        let mut empty_a = BodyHasher::new();
        empty_a.update(&[]);
        let empty_b = BodyHasher::new();
        assert_eq!(empty_a.finish(), empty_b.finish());
    }

    #[test]
    fn mapped_graph_clones_and_induced_subgraphs_stay_valid() {
        let g = figure1();
        let mapped = map_bytes(&encode(&g), "clone").unwrap();
        let clone = mapped.clone();
        assert_eq!(clone, g);
        // Derived graphs are rebuilt through the builder and must be fully owned.
        let filtered = mapped.filter_small_queries(2);
        assert!(!filtered.is_mapped());
        assert_eq!(filtered, g.filter_small_queries(2));
        drop(mapped);
        drop(clone);
        assert_eq!(filtered.num_queries(), 3);
    }
}
