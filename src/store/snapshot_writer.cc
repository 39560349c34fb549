#include "store/snapshot_writer.h"

#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "features/feature_store.h"
#include "store/codec.h"
#include "store/format.h"

namespace sablock::store {

namespace {

struct PendingSection {
  SectionId id;
  SectionEncoding encoding;
  uint64_t item_count = 0;
  std::string payload;
};

uint64_t Align8(uint64_t offset) { return (offset + 7) & ~uint64_t{7}; }

/// Ends a raw matrix section's preamble with a pad-length byte and that
/// many zeros, so the matrix after it starts on an absolute 8-byte file
/// offset (section payloads start 8-aligned) and the loader can serve it
/// zero-copy out of the mapping.
void PutAlignmentPad(ByteWriter& w) {
  const uint8_t pad = static_cast<uint8_t>((8 - ((w.size() + 1) % 8)) % 8);
  w.PutU8(pad);
  for (uint8_t i = 0; i < pad; ++i) w.PutU8(0);
}

/// Appends section `id` of `item_count` items and returns a writer for
/// its payload, valid until the next section is added.
ByteWriter AddSection(std::vector<PendingSection>* sections, SectionId id,
                      bool compress, uint64_t item_count) {
  const SectionEncoding encoding =
      compress ? SectionEncoding::kCompressed : SectionEncoding::kRaw;
  sections->push_back({id, encoding, item_count, {}});
  return ByteWriter(&sections->back().payload);
}

/// Writes `rows` as the (counts, values) block pair that ends a token or
/// shingle section.
template <typename T>
void WriteRowBlocks(ByteWriter& w, const features::Rows<T>& rows,
                    bool compress) {
  const std::span<const size_t> offsets = rows.offsets();
  std::vector<uint64_t> counts(rows.size());
  for (size_t r = 0; r < counts.size(); ++r) {
    counts[r] = offsets[r + 1] - offsets[r];
  }
  WriteU64Block(w, counts, compress);
  WriteU64Block(w, rows.values(), compress);
}

void AddValueSections(const data::Dataset& dataset, bool compress,
                      std::vector<PendingSection>* sections) {
  // Re-serialize the value bytes contiguously in row-major order (the
  // live arena may be fragmented across chunks and interleaved with
  // other datasets); the offsets are then a sorted array that varint
  // deltas compress to roughly a byte per value.
  const size_t width = dataset.schema().size();
  const size_t n = dataset.size();
  std::string blob;
  std::vector<uint64_t> offsets;
  offsets.reserve(n * width + 1);
  for (size_t id = 0; id < n; ++id) {
    for (std::string_view v : dataset.Values(static_cast<data::RecordId>(id))) {
      offsets.push_back(blob.size());
      blob.append(v);
    }
  }
  offsets.push_back(blob.size());
  ByteWriter w = AddSection(sections, SectionId::kValueOffsets, compress,
                            offsets.size());
  WriteU64Block(w, offsets, compress);
  const uint64_t bytes = blob.size();
  sections->push_back(
      {SectionId::kArena, SectionEncoding::kRaw, bytes, std::move(blob)});
}

/// One section per column in the store's catalog.
void AddFeatureSections(const features::FeatureStore& store, bool compress,
                        std::vector<PendingSection>* sections) {
  const features::FeatureStore::Catalog catalog = store.catalog();
  for (const auto& params : catalog.texts) {
    const features::TextColumn& column = store.Texts(params.attributes);
    std::vector<std::string_view> texts(column.size());
    for (size_t id = 0; id < texts.size(); ++id) texts[id] = column.Row(id);
    ByteWriter w = AddSection(sections, SectionId::kTextColumn, compress,
                              column.size());
    WriteStringBlock(w, params.attributes, /*compressed=*/false);
    WriteStringBlock(w, texts, compress);
  }
  for (const auto& params : catalog.tokens) {
    // The vocabulary travels in id order, and the rows as (counts, flat
    // sorted ids) — both sorted, so deltas bite.
    const features::TokenColumn& column = store.Tokens(params.attributes);
    ByteWriter w = AddSection(sections, SectionId::kTokenColumn, compress,
                              column.size());
    WriteStringBlock(w, params.attributes, /*compressed=*/false);
    WriteStringBlock(w, column.vocabulary(), compress);
    WriteRowBlocks(w, column.rows(), compress);
  }
  for (const auto& params : catalog.shingles) {
    const features::ShingleColumn& column =
        store.Shingles(params.attributes, params.q);
    ByteWriter w = AddSection(sections, SectionId::kShingleColumn, compress,
                              column.size());
    WriteStringBlock(w, params.attributes, /*compressed=*/false);
    w.PutVarint(static_cast<uint64_t>(params.q));
    WriteRowBlocks(w, column, compress);
  }
  // Signature and band columns are always raw: the loader aliases them.
  for (const auto& params : catalog.signatures) {
    const features::SignatureColumn& column = store.Signatures(
        params.attributes, params.q, params.num_hashes, params.seed);
    ByteWriter w = AddSection(sections, SectionId::kSignatureColumn,
                              /*compress=*/false, column.rows.size());
    WriteStringBlock(w, params.attributes, /*compressed=*/false);
    w.PutVarint(static_cast<uint64_t>(params.q));
    w.PutVarint(static_cast<uint64_t>(params.num_hashes));
    w.PutVarint(params.seed);
    w.PutVarint(column.rows.size());
    PutAlignmentPad(w);
    w.PutBytes(column.rows.data(), column.rows.size() * sizeof(uint64_t));
  }
  for (const auto& params : catalog.bands) {
    // The keys, then the empty-record marks: one array of `words` u64s.
    const features::BandColumn& column = store.Bands(
        params.attributes, params.q, params.k, params.l, params.seed);
    const uint64_t words = column.keys.size() + column.empty.size();
    ByteWriter w = AddSection(sections, SectionId::kBandColumn,
                              /*compress=*/false, words);
    WriteStringBlock(w, params.attributes, /*compressed=*/false);
    w.PutVarint(static_cast<uint64_t>(params.q));
    w.PutVarint(static_cast<uint64_t>(params.k));
    w.PutVarint(static_cast<uint64_t>(params.l));
    w.PutVarint(params.seed);
    w.PutVarint(words);
    PutAlignmentPad(w);
    w.PutBytes(column.keys.data(), column.keys.size() * sizeof(uint64_t));
    w.PutBytes(column.empty.data(), column.empty.size() * sizeof(uint64_t));
  }
}

}  // namespace

Status WriteSnapshot(const std::string& path, const data::Dataset& dataset,
                     const WriteOptions& options, WriteInfo* info) {
  std::vector<PendingSection> sections;
  // Names (the schema, attribute lists) are always raw.
  ByteWriter schema = AddSection(&sections, SectionId::kSchema,
                                 /*compress=*/false, dataset.schema().size());
  WriteStringBlock(schema, dataset.schema().names(), /*compressed=*/false);
  ByteWriter ids = AddSection(&sections, SectionId::kEntities,
                              options.compress, dataset.entities().size());
  WriteU64Block(ids, dataset.entities(), options.compress);
  AddValueSections(dataset, options.compress, &sections);

  const size_t core_sections = sections.size();
  if (options.include_features && !dataset.empty()) {
    features::FeatureView view = dataset.features();
    // Only whole-dataset stores serialize (a slice's view translates
    // record ids into a larger parent snapshot; its columns would not
    // line up with the records written above).
    if (view.offset() == 0 && view.store().size() == dataset.size()) {
      AddFeatureSections(view.store(), options.compress, &sections);
    }
  }
  const auto feature_sections =
      static_cast<uint32_t>(sections.size() - core_sections);

  // Lay out the file: header, table, 8-aligned payloads.
  const uint64_t table_bytes = sections.size() * kSectionEntryBytes;
  uint64_t cursor = Align8(kHeaderBytes + table_bytes);
  std::vector<SectionEntry> entries;
  entries.reserve(sections.size());
  for (const PendingSection& s : sections) {
    SectionEntry e;
    e.id = static_cast<uint32_t>(s.id);
    e.encoding = static_cast<uint32_t>(s.encoding);
    e.offset = cursor;
    e.stored_bytes = s.payload.size();
    e.item_count = s.item_count;
    e.checksum = Checksum64(s.payload.data(), s.payload.size());
    entries.push_back(e);
    cursor = Align8(cursor + s.payload.size());
  }
  const uint64_t file_bytes =
      entries.empty() ? Align8(kHeaderBytes + table_bytes)
                      : entries.back().offset + sections.back().payload.size();

  std::string table;
  {
    ByteWriter w(&table);
    for (const SectionEntry& e : entries) {
      w.PutU32(e.id);
      w.PutU32(e.encoding);
      w.PutU64(e.offset);
      w.PutU64(e.stored_bytes);
      w.PutU64(e.item_count);
      w.PutU64(e.checksum);
    }
  }

  std::string file;
  file.reserve(file_bytes);
  {
    ByteWriter w(&file);
    w.PutBytes(kMagic, kMagicBytes);
    w.PutU32(kEndianMarker);
    w.PutU32(kFormatVersion);
    w.PutU64(dataset.size());
    w.PutU32(static_cast<uint32_t>(dataset.schema().size()));
    w.PutU32(static_cast<uint32_t>(sections.size()));
    w.PutU64(file_bytes);
    w.PutU64(Checksum64(table.data(), table.size()));
  }
  file.append(table);
  for (size_t i = 0; i < sections.size(); ++i) {
    file.resize(entries[i].offset, '\0');  // alignment padding
    file.append(sections[i].payload);
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    return Status::Error("snapshot: cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(file.data(), 1, file.size(), f);
  int close_rc = std::fclose(f);
  if (written != file.size() || close_rc != 0) {
    std::remove(path.c_str());
    return Status::Error("snapshot: short write to " + path);
  }

  if (info) {
    info->file_bytes = file.size();
    info->sections = static_cast<uint32_t>(sections.size());
    info->feature_sections = feature_sections;
  }
  return Status::Ok();
}

}  // namespace sablock::store
