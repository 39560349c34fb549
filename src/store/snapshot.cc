#include "store/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/minhash.h"
#include "features/feature_store.h"
#include "store/codec.h"
#include "store/format.h"

namespace sablock::store {

namespace {

Status Fail(const std::string& what) {
  return Status::Error("snapshot: " + what);
}

/// RAII read-only file mapping. The loaded dataset's arena (and any
/// adopted signature or band column) co-owns it via aliasing
/// shared_ptrs, so the mapping outlives every view handed out of the
/// snapshot.
class MappedFile {
 public:
  static Status Map(const std::string& path,
                    std::shared_ptr<MappedFile>* out) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Fail("cannot open " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return Fail("cannot stat " + path);
    }
    size_t size = static_cast<size_t>(st.st_size);
    void* base = nullptr;
    if (size > 0) {
      base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base == MAP_FAILED) {
        ::close(fd);
        return Fail("mmap failed for " + path);
      }
    }
    ::close(fd);
    out->reset(new MappedFile(base, size));
    return Status::Ok();
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (base_) ::munmap(base_, size_);
  }

  const char* data() const { return static_cast<const char*>(base_); }
  size_t size() const { return size_; }

 private:
  MappedFile(void* base, size_t size) : base_(base), size_(size) {}
  void* base_;
  size_t size_;
};

bool IsCompressed(const SectionEntry& e) {
  return e.encoding == static_cast<uint32_t>(SectionEncoding::kCompressed);
}

/// An adoption the store refused: an earlier section held the column.
Status Adopted(bool fresh) {
  return fresh ? Status::Ok() : Fail("duplicate feature column section");
}

Status LoadTextColumn(ByteReader& r, const SectionEntry& e, uint64_t n,
                      const std::vector<std::string>& attrs,
                      features::FeatureStore* store) {
  features::TextColumn column;
  Status s = ReadStringBlock(r, IsCompressed(e), &column);
  if (!s.ok()) return s;
  if (column.size() != n || e.item_count != n) {
    return Fail("text column record count mismatch");
  }
  if (r.remaining() != 0) return Fail("text column has trailing bytes");
  return Adopted(store->AdoptTexts(attrs, std::move(column)));
}

/// The (counts, values) block pair that ends a token or shingle section:
/// one count per record, then every record's values back to back.
Status ReadRowBlocks(ByteReader& r, const SectionEntry& e, uint64_t n,
                     const std::string& column, std::vector<uint64_t>* counts,
                     std::vector<uint64_t>* values) {
  Status s = ReadU64Block(r, IsCompressed(e), counts);
  if (s.ok()) s = ReadU64Block(r, IsCompressed(e), values);
  if (!s.ok()) return s;
  if (counts->size() != n || e.item_count != n) {
    return Fail(column + " record count mismatch");
  }
  if (r.remaining() != 0) return Fail(column + " has trailing bytes");
  return Status::Ok();
}

Status LoadTokenColumn(ByteReader& r, const SectionEntry& e, uint64_t n,
                       const std::vector<std::string>& attrs,
                       features::FeatureStore* store) {
  std::vector<std::string> vocabulary;
  std::vector<uint64_t> counts;
  std::vector<uint64_t> ids;
  Status s = ReadStringBlock(r, IsCompressed(e), &vocabulary);
  if (s.ok()) s = ReadRowBlocks(r, e, n, "token column", &counts, &ids);
  if (!s.ok()) return s;
  features::TokenColumn column;
  s = features::TokenColumn::Load(std::move(vocabulary), counts, ids,
                                  &column);
  if (!s.ok()) return Fail(s.message());
  return Adopted(store->AdoptTokens(attrs, std::move(column)));
}

Status LoadShingleColumn(ByteReader& r, const SectionEntry& e, uint64_t n,
                         const std::vector<std::string>& attrs,
                         features::FeatureStore* store) {
  uint64_t q;
  if (!r.ReadVarint(&q) || q == 0 || q > INT32_MAX) {
    return Fail("shingle column has a corrupt q");
  }
  std::vector<uint64_t> counts;
  std::vector<uint64_t> hashes;
  Status s = ReadRowBlocks(r, e, n, "shingle column", &counts, &hashes);
  if (!s.ok()) return s;
  features::ShingleColumn column;
  s = features::ShingleColumn::FromCounts(counts, std::move(hashes), "hashes",
                                          &column);
  if (!s.ok()) return Fail("shingle column " + s.message());
  return Adopted(
      store->AdoptShingles(attrs, static_cast<int>(q), std::move(column)));
}

/// The raw matrix that ends a signature or band section, after the
/// preamble's pad-length byte and padding: exactly `count` u64 words on an
/// 8-aligned file offset, served zero-copy out of the mapping.
Status AliasMatrix(ByteReader& r, uint64_t count, const std::string& column,
                   const uint64_t** matrix) {
  uint8_t pad;
  if (!r.ReadU8(&pad) || !r.Skip(pad)) {
    return Fail(column + " column has a truncated preamble");
  }
  if (r.position() % 8 != 0) return Fail(column + " matrix misaligned");
  if (r.remaining() != count * sizeof(uint64_t)) {
    return Fail(column + " matrix size mismatch");
  }
  // The payload starts on an 8-aligned file offset inside a page-aligned
  // mapping and position % 8 == 0, so this cast is aligned.
  *matrix = reinterpret_cast<const uint64_t*>(r.cursor());
  return Status::Ok();
}

Status LoadSignatureColumn(const std::shared_ptr<MappedFile>& file,
                           ByteReader& r, const SectionEntry& e, uint64_t n,
                           const std::vector<std::string>& attrs,
                           features::FeatureStore* store) {
  uint64_t q, num_hashes, seed, count;
  if (!r.ReadVarint(&q) || !r.ReadVarint(&num_hashes) ||
      !r.ReadVarint(&seed) || !r.ReadVarint(&count)) {
    return Fail("signature column has a truncated preamble");
  }
  if (q == 0 || q > INT32_MAX || num_hashes == 0 || num_hashes > INT32_MAX) {
    return Fail("signature column has corrupt parameters");
  }
  if (count != n * num_hashes || e.item_count != count) {
    return Fail("signature matrix shape mismatch");
  }
  const uint64_t* matrix = nullptr;
  Status s = AliasMatrix(r, count, "signature", &matrix);
  if (!s.ok()) return s;
  features::SignatureColumn column;
  column.num_hashes = static_cast<uint32_t>(num_hashes);
  column.rows = {matrix, static_cast<size_t>(count)};
  column.retain = std::shared_ptr<const void>(file, matrix);
  return Adopted(store->AdoptSignatures(attrs, static_cast<int>(q),
                                        static_cast<int>(num_hashes), seed,
                                        std::move(column)));
}

Status LoadBandColumn(const std::shared_ptr<MappedFile>& file, ByteReader& r,
                      const SectionEntry& e, uint64_t n,
                      const std::vector<std::string>& attrs,
                      features::FeatureStore* store) {
  uint64_t q, k, l, seed, count;
  if (!r.ReadVarint(&q) || !r.ReadVarint(&k) || !r.ReadVarint(&l) ||
      !r.ReadVarint(&seed) || !r.ReadVarint(&count)) {
    return Fail("band column has a truncated preamble");
  }
  constexpr uint64_t kMaxRows = core::kMaxMinhashRows;
  if (q == 0 || q > INT32_MAX || k == 0 || l == 0 || k > kMaxRows ||
      l > kMaxRows || k * l > kMaxRows) {
    return Fail("band column has corrupt parameters");
  }
  const uint64_t keys = n * l;
  const uint64_t marks = features::BandColumn::MarkWords(n);
  if (count != keys + marks || e.item_count != count) {
    return Fail("band matrix shape mismatch");
  }
  const uint64_t* matrix = nullptr;
  Status s = AliasMatrix(r, count, "band", &matrix);
  if (!s.ok()) return s;
  features::BandColumn column;
  column.tables = static_cast<uint32_t>(l);
  column.keys = {matrix, static_cast<size_t>(keys)};
  column.empty = {matrix + keys, static_cast<size_t>(marks)};
  // The marks name records of this dataset only, and a record is marked
  // iff its keys are all zero: the build zeroes a marked record's keys,
  // and l band keys of a text are never all zero (a 2^-64l chance), so
  // an unmarked record's check stops at its first key.
  if (n % 64 != 0 && (column.empty.back() >> (n % 64)) != 0) {
    return Fail("band column marks a record past the last");
  }
  for (size_t record = 0; record < n; ++record) {
    const bool zero = std::ranges::all_of(column.keys.subspan(record * l, l),
                                          [](uint64_t key) { return key == 0; });
    if (zero != column.Empty(record)) {
      return Fail("band column record " + std::to_string(record) +
                  (zero ? " has no keys but is not marked empty"
                        : " is marked empty but has keys"));
    }
  }
  column.retain = std::shared_ptr<const void>(file, matrix);
  return Adopted(store->AdoptBands(attrs, static_cast<int>(q),
                                   static_cast<int>(k), static_cast<int>(l),
                                   seed, std::move(column)));
}

}  // namespace

Status LoadSnapshot(const std::string& path, const LoadOptions& options,
                    data::Dataset* out, SnapshotInfo* info) {
  std::shared_ptr<MappedFile> file;
  Status mapped = MappedFile::Map(path, &file);
  if (!mapped.ok()) return mapped;
  const char* base = file->data();
  const size_t size = file->size();
  if (size < kHeaderBytes) return Fail("file too small to hold a header");

  ByteReader header(base, kHeaderBytes);
  char magic[kMagicBytes];
  header.ReadBytes(magic, kMagicBytes);
  if (std::memcmp(magic, kMagic, kMagicBytes) != 0) {
    return Fail("bad magic (not a .sab snapshot)");
  }
  uint32_t endian = 0, version = 0, attr_count = 0, section_count = 0;
  uint64_t record_count = 0, file_bytes = 0, table_checksum = 0;
  header.ReadU32(&endian);
  header.ReadU32(&version);
  header.ReadU64(&record_count);
  header.ReadU32(&attr_count);
  header.ReadU32(&section_count);
  header.ReadU64(&file_bytes);
  header.ReadU64(&table_checksum);
  if (endian != kEndianMarker) {
    return Fail(endian == __builtin_bswap32(kEndianMarker)
                    ? "byte-order mismatch (snapshot written on a "
                      "foreign-endian machine)"
                    : "corrupt endian marker");
  }
  if (version != kFormatVersion) {
    return Fail("unsupported format version " + std::to_string(version) +
                " (this build reads version " +
                std::to_string(kFormatVersion) + ")");
  }
  if (file_bytes != size) {
    return Fail("truncated or padded file (header claims " +
                std::to_string(file_bytes) + " bytes, file has " +
                std::to_string(size) + ")");
  }
  const uint64_t table_bytes = uint64_t{section_count} * kSectionEntryBytes;
  if (table_bytes > size - kHeaderBytes) {
    return Fail("section table exceeds the file");
  }
  const char* table = base + kHeaderBytes;
  if (Checksum64(table, table_bytes) != table_checksum) {
    return Fail("section table checksum mismatch");
  }

  std::vector<SectionEntry> entries(section_count);
  ByteReader tr(table, table_bytes);
  bool any_compressed = false;
  for (SectionEntry& e : entries) {
    tr.ReadU32(&e.id);
    tr.ReadU32(&e.encoding);
    tr.ReadU64(&e.offset);
    tr.ReadU64(&e.stored_bytes);
    tr.ReadU64(&e.item_count);
    tr.ReadU64(&e.checksum);
    if (e.offset % 8 != 0 || e.offset < kHeaderBytes + table_bytes ||
        e.offset > size || e.stored_bytes > size - e.offset) {
      return Fail("section payload out of bounds");
    }
    if (e.encoding > static_cast<uint32_t>(SectionEncoding::kCompressed)) {
      return Fail("unknown section encoding");
    }
    if (IsCompressed(e)) any_compressed = true;
    if (Checksum64(base + e.offset, e.stored_bytes) != e.checksum) {
      return Fail("section payload checksum mismatch (section id " +
                  std::to_string(e.id) + ")");
    }
  }

  const SectionEntry* schema_sec = nullptr;
  const SectionEntry* entities_sec = nullptr;
  const SectionEntry* arena_sec = nullptr;
  const SectionEntry* offsets_sec = nullptr;
  std::vector<const SectionEntry*> feature_secs;
  for (const SectionEntry& e : entries) {
    switch (static_cast<SectionId>(e.id)) {
      case SectionId::kSchema:
        if (schema_sec) return Fail("duplicate schema section");
        schema_sec = &e;
        break;
      case SectionId::kEntities:
        if (entities_sec) return Fail("duplicate entities section");
        entities_sec = &e;
        break;
      case SectionId::kArena:
        if (arena_sec) return Fail("duplicate arena section");
        arena_sec = &e;
        break;
      case SectionId::kValueOffsets:
        if (offsets_sec) return Fail("duplicate value-offsets section");
        offsets_sec = &e;
        break;
      case SectionId::kTextColumn:
      case SectionId::kTokenColumn:
      case SectionId::kShingleColumn:
      case SectionId::kSignatureColumn:
      case SectionId::kBandColumn:
        feature_secs.push_back(&e);
        break;
      default:
        break;  // additive future section: skip, per the version policy
    }
  }
  if (!schema_sec || !entities_sec || !arena_sec || !offsets_sec) {
    return Fail("missing a required dataset section");
  }

  // --- dataset core ------------------------------------------------------
  std::vector<std::string> names;
  {
    ByteReader r(base + schema_sec->offset, schema_sec->stored_bytes);
    Status s = ReadStringBlock(r, IsCompressed(*schema_sec), &names);
    if (!s.ok()) return s;
    if (names.size() != attr_count || r.remaining() != 0) {
      return Fail("schema does not match the header attribute count");
    }
  }

  std::vector<data::EntityId> entities;
  {
    ByteReader r(base + entities_sec->offset, entities_sec->stored_bytes);
    std::vector<uint64_t> raw;
    Status s = ReadU64Block(r, IsCompressed(*entities_sec), &raw);
    if (!s.ok()) return s;
    if (raw.size() != record_count || r.remaining() != 0) {
      return Fail("entity section does not match the header record count");
    }
    entities.reserve(raw.size());
    for (uint64_t v : raw) {
      if (v > UINT32_MAX) return Fail("entity id out of range");
      entities.push_back(static_cast<data::EntityId>(v));
    }
  }

  if (arena_sec->item_count != arena_sec->stored_bytes) {
    return Fail("arena section is inconsistent");
  }
  std::vector<uint64_t> offsets;
  {
    ByteReader r(base + offsets_sec->offset, offsets_sec->stored_bytes);
    Status s = ReadU64Block(r, IsCompressed(*offsets_sec), &offsets);
    if (!s.ok()) return s;
    if (offsets.size() != record_count * attr_count + 1 ||
        r.remaining() != 0) {
      return Fail("value-offset count does not match the record count");
    }
    if (offsets.front() != 0 || offsets.back() != arena_sec->stored_bytes) {
      return Fail("value offsets do not span the arena");
    }
  }

  const char* blob = base + arena_sec->offset;
  auto arena = std::make_shared<data::StringArena>();
  arena->Adopt(std::shared_ptr<const void>(file, blob),
               arena_sec->stored_bytes);
  std::vector<std::string_view> values;
  values.reserve(offsets.size() - 1);
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    uint64_t begin = offsets[i], end = offsets[i + 1];
    if (end < begin || end > arena_sec->stored_bytes) {
      return Fail("value offsets are not monotone");
    }
    values.push_back(end == begin ? std::string_view{}
                                  : std::string_view(blob + begin,
                                                     end - begin));
  }
  *out = data::Dataset::FromColumns(data::Schema(std::move(names)),
                                    std::move(arena), std::move(values),
                                    std::move(entities));

  // --- precomputed feature columns ---------------------------------------
  uint32_t loaded_features = 0;
  if (options.load_features && !feature_secs.empty()) {
    auto store = std::make_shared<features::FeatureStore>(*out);
    for (const SectionEntry* e : feature_secs) {
      ByteReader r(base + e->offset, e->stored_bytes);
      // The attribute list is always raw (only section bulks carry the
      // per-section encoding).
      std::vector<std::string> attrs;
      Status s = ReadStringBlock(r, /*compressed=*/false, &attrs);
      if (!s.ok()) return s;
      switch (static_cast<SectionId>(e->id)) {
        case SectionId::kTextColumn:
          s = LoadTextColumn(r, *e, record_count, attrs, store.get());
          break;
        case SectionId::kTokenColumn:
          s = LoadTokenColumn(r, *e, record_count, attrs, store.get());
          break;
        case SectionId::kShingleColumn:
          s = LoadShingleColumn(r, *e, record_count, attrs, store.get());
          break;
        case SectionId::kBandColumn:
          s = LoadBandColumn(file, r, *e, record_count, attrs, store.get());
          break;
        default:  // kSignatureColumn, the last of the five feature kinds
          s = LoadSignatureColumn(file, r, *e, record_count, attrs,
                                  store.get());
          break;
      }
      if (!s.ok()) return s;
      ++loaded_features;
    }
    out->AdoptFeatures(std::move(store));
  }

  if (info) {
    info->file_bytes = size;
    info->records = record_count;
    info->attributes = attr_count;
    info->sections = section_count;
    info->feature_sections = loaded_features;
    info->any_compressed = any_compressed;
  }
  return Status::Ok();
}

}  // namespace sablock::store
