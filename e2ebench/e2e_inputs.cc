// Seeded input generation. Runs in its own process (`sablock_e2e
// generate`) so the measured workload processes only ever read files.
// Each file is written under a temporary name and renamed into place, so
// a directory never holds a half-written input.

#include <cstdio>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "common/random.h"
#include "data/cora_generator.h"
#include "data/csv.h"
#include "data/voter_generator.h"
#include "e2e.h"
#include "store/snapshot_writer.h"

namespace sablock::e2e {
namespace {

/// Served records of one Cora-scale bibliography (the paper's Cora has
/// 1,879 records of 190 entities).
constexpr size_t kBibliographyRecords = 2000;

/// A Cora-like corpus of `served` + `heldout` records (10 per entity),
/// built as a union of independently seeded bibliographies; each part
/// contributes its share of served and of held-out records, so held-out
/// records are further citations of entities already served.
///
/// One generation of the whole corpus would put a fifth of its records
/// into a single entity (the generator's citation skew), so the work the
/// corpus causes would hinge on that one entity's tokens and change
/// several-fold from seed to seed. A union of paper-sized parts keeps the
/// skew inside each part and the total cost nearly the same at any seed.
void CoraCorpus(size_t served, size_t heldout, uint64_t seed,
                data::Dataset* served_out, data::Dataset* heldout_out) {
  const size_t parts = std::max<size_t>(served / kBibliographyRecords, 1);
  struct Row {
    size_t part;
    data::RecordId id;
  };
  std::vector<data::Dataset> generated;
  std::vector<Row> served_rows;
  std::vector<Row> heldout_rows;
  for (size_t p = 0; p < parts; ++p) {
    data::CoraGeneratorConfig config;
    config.num_records = (served + heldout) / parts;
    config.num_entities = std::max<size_t>(config.num_records / 10, 1);
    config.seed = HashCombine(seed, p);
    generated.push_back(data::GenerateCoraLike(config));
    const size_t cut = served / parts;
    for (size_t id = 0; id < generated.back().size(); ++id) {
      (id < cut ? served_rows : heldout_rows)
          .push_back({p, static_cast<data::RecordId>(id)});
    }
  }
  Rng rng(Mix64(seed));
  auto assemble = [&](std::vector<Row>& rows, data::Dataset* out) {
    rng.Shuffle(&rows);
    *out = data::Dataset(generated.front().schema());
    for (const Row& row : rows) {
      const data::Dataset& part = generated[row.part];
      // Entity ids are part-local; offset them so parts never share one.
      out->AddRow(part.Values(row.id),
                  static_cast<data::EntityId>(row.part * part.size() +
                                              part.entity(row.id)));
    }
  };
  assemble(served_rows, served_out);
  assemble(heldout_rows, heldout_out);
}

Status Publish(const std::string& tmp, const std::string& path) {
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Error("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

Status WriteCsvAtomically(const data::Dataset& dataset,
                          const std::string& path) {
  const std::string tmp = path + ".tmp";
  Status s = data::WriteCsv(tmp, dataset, "entity");
  return s.ok() ? Publish(tmp, path) : s;
}

}  // namespace

Status GenerateInputs(const std::string& kind, uint64_t seed,
                      const Sizes& sizes, const std::string& dir) {
  if (kind == "voter") {
    data::VoterGeneratorConfig config;
    config.num_records = sizes.voter_records;
    config.seed = seed;
    return WriteCsvAtomically(data::GenerateVoterLike(config),
                              dir + "/voter.csv");
  }
  data::Dataset served;
  data::Dataset heldout;
  if (kind == "cora") {
    CoraCorpus(sizes.cora_records, 0, seed, &served, &heldout);
    return WriteCsvAtomically(served, dir + "/cora.csv");
  }
  if (kind == "serve") {
    CoraCorpus(sizes.serve_records, sizes.serve_heldout, seed, &served,
               &heldout);
    Status s = WriteCsvAtomically(heldout, dir + "/heldout.csv");
    if (!s.ok()) return s;
    const std::string path = dir + "/serve.sab";
    store::WriteOptions options;
    options.include_features = false;  // the index computes its own
    s = store::WriteSnapshot(path + ".tmp", served, options);
    return s.ok() ? Publish(path + ".tmp", path) : s;
  }
  return Status::Error("unknown input kind '" + kind + "'");
}

}  // namespace sablock::e2e
