#include "store/snapshot_writer.h"

#include <cstdio>
#include <string>
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

void AddSchemaSection(const data::Dataset& dataset,
                      std::vector<PendingSection>* sections) {
  PendingSection s{SectionId::kSchema, SectionEncoding::kRaw,
                   dataset.schema().size(), {}};
  ByteWriter w(&s.payload);
  WriteStringBlock(w, dataset.schema().names(), /*compressed=*/false);
  sections->push_back(std::move(s));
}

void AddEntitiesSection(const data::Dataset& dataset, bool compress,
                        std::vector<PendingSection>* sections) {
  std::vector<uint64_t> entities(dataset.entities().begin(),
                                 dataset.entities().end());
  PendingSection s{SectionId::kEntities,
                   compress ? SectionEncoding::kCompressed
                            : SectionEncoding::kRaw,
                   entities.size(),
                   {}};
  ByteWriter w(&s.payload);
  WriteU64Block(w, entities, compress);
  sections->push_back(std::move(s));
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

  PendingSection off{SectionId::kValueOffsets,
                     compress ? SectionEncoding::kCompressed
                              : SectionEncoding::kRaw,
                     offsets.size(),
                     {}};
  ByteWriter ow(&off.payload);
  WriteU64Block(ow, offsets, compress);
  sections->push_back(std::move(off));

  PendingSection arena{SectionId::kArena, SectionEncoding::kRaw, blob.size(),
                       std::move(blob)};
  sections->push_back(std::move(arena));
}

void WriteAttrs(ByteWriter& w, const std::vector<std::string>& attributes) {
  WriteStringBlock(w, attributes, /*compressed=*/false);
}

void AddTextSection(const features::FeatureStore& store,
                    const features::FeatureStore::ColumnParams& params,
                    bool compress, std::vector<PendingSection>* sections) {
  const features::TextColumn& column = store.Texts(params.attributes);
  PendingSection s{SectionId::kTextColumn,
                   compress ? SectionEncoding::kCompressed
                            : SectionEncoding::kRaw,
                   column.texts.size(),
                   {}};
  ByteWriter w(&s.payload);
  WriteAttrs(w, params.attributes);
  WriteStringBlock(w, column.texts, compress);
  sections->push_back(std::move(s));
}

void AddTokenSection(const features::FeatureStore& store,
                     const features::FeatureStore::ColumnParams& params,
                     bool compress, std::vector<PendingSection>* sections) {
  const features::TokenColumn& column = store.Tokens(params.attributes);
  // The vocabulary travels in id order, and the rows as (counts, flat
  // sorted ids) — both sorted, so deltas bite.
  std::vector<uint64_t> counts;
  counts.reserve(column.size());
  for (size_t row = 0; row < column.size(); ++row) {
    counts.push_back(column.Row(row).size());
  }
  const std::vector<uint64_t> flat(column.ids().begin(), column.ids().end());
  PendingSection s{SectionId::kTokenColumn,
                   compress ? SectionEncoding::kCompressed
                            : SectionEncoding::kRaw,
                   column.size(),
                   {}};
  ByteWriter w(&s.payload);
  WriteAttrs(w, params.attributes);
  const std::span<const std::string_view> vocabulary = column.vocabulary();
  WriteStringBlock(
      w, std::vector<std::string>(vocabulary.begin(), vocabulary.end()),
      compress);
  WriteU64Block(w, counts, compress);
  WriteU64Block(w, flat, compress);
  sections->push_back(std::move(s));
}

void AddShingleSection(const features::FeatureStore& store,
                       const features::FeatureStore::ColumnParams& params,
                       bool compress, std::vector<PendingSection>* sections) {
  const features::ShingleColumn& column =
      store.Shingles(params.attributes, params.q);
  std::vector<uint64_t> counts;
  counts.reserve(column.sets.size());
  std::vector<uint64_t> flat;
  for (const std::vector<uint64_t>& set : column.sets) {
    counts.push_back(set.size());
    flat.insert(flat.end(), set.begin(), set.end());
  }
  PendingSection s{SectionId::kShingleColumn,
                   compress ? SectionEncoding::kCompressed
                            : SectionEncoding::kRaw,
                   column.sets.size(),
                   {}};
  ByteWriter w(&s.payload);
  WriteAttrs(w, params.attributes);
  w.PutVarint(static_cast<uint64_t>(params.q));
  WriteU64Block(w, counts, compress);
  WriteU64Block(w, flat, compress);
  sections->push_back(std::move(s));
}

void AddSignatureSection(const features::FeatureStore& store,
                         const features::FeatureStore::ColumnParams& params,
                         std::vector<PendingSection>* sections) {
  const features::SignatureColumn& column = store.Signatures(
      params.attributes, params.q, params.num_hashes, params.seed);
  // Always raw: the loader serves this matrix zero-copy out of the
  // mapping, so the payload tail is padded to an absolute 8-byte file
  // offset (section payloads start 8-aligned; pad_len re-aligns after
  // the variable-length preamble).
  PendingSection s{SectionId::kSignatureColumn, SectionEncoding::kRaw,
                   column.rows.size(), {}};
  ByteWriter w(&s.payload);
  WriteAttrs(w, params.attributes);
  w.PutVarint(static_cast<uint64_t>(params.q));
  w.PutVarint(static_cast<uint64_t>(params.num_hashes));
  w.PutVarint(params.seed);
  w.PutVarint(column.rows.size());
  uint8_t pad = static_cast<uint8_t>((8 - ((w.size() + 1) % 8)) % 8);
  w.PutU8(pad);
  for (uint8_t i = 0; i < pad; ++i) w.PutU8(0);
  w.PutBytes(column.rows.data(), column.rows.size() * sizeof(uint64_t));
  sections->push_back(std::move(s));
}

}  // namespace

Status WriteSnapshot(const std::string& path, const data::Dataset& dataset,
                     const WriteOptions& options, WriteInfo* info) {
  std::vector<PendingSection> sections;
  AddSchemaSection(dataset, &sections);
  AddEntitiesSection(dataset, options.compress, &sections);
  AddValueSections(dataset, options.compress, &sections);

  uint32_t feature_sections = 0;
  if (options.include_features && !dataset.empty()) {
    features::FeatureView view = dataset.features();
    const features::FeatureStore& store = view.store();
    // Only whole-dataset stores serialize (a slice's view translates
    // record ids into a larger parent snapshot; its columns would not
    // line up with the records written above).
    if (view.offset() == 0 && store.size() == dataset.size()) {
      features::FeatureStore::Catalog catalog = store.catalog();
      for (const auto& params : catalog.texts) {
        AddTextSection(store, params, options.compress, &sections);
      }
      for (const auto& params : catalog.tokens) {
        AddTokenSection(store, params, options.compress, &sections);
      }
      for (const auto& params : catalog.shingles) {
        AddShingleSection(store, params, options.compress, &sections);
      }
      for (const auto& params : catalog.signatures) {
        AddSignatureSection(store, params, &sections);
      }
      feature_sections = static_cast<uint32_t>(
          catalog.texts.size() + catalog.tokens.size() +
          catalog.shingles.size() + catalog.signatures.size());
    }
  }

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
