#include "data/voter_generator.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "data/corruptor.h"
#include "data/name_pools.h"

namespace sablock::data {

namespace {

struct VoterEntity {
  std::string first;
  std::string last;
  std::string gender;  // "m" / "f"
  std::string race;    // "w","b","a","i","o","h"
  std::string city;
  std::string street;
  int age;
};

const char* kRaces[] = {"w", "b", "a", "i", "o", "h"};

std::string DrawRace(sablock::Rng* rng) {
  // Roughly NC-like skew: mostly w/b.
  double u = rng->UniformReal();
  if (u < 0.62) return kRaces[0];
  if (u < 0.84) return kRaces[1];
  if (u < 0.88) return kRaces[2];
  if (u < 0.90) return kRaces[3];
  if (u < 0.94) return kRaces[4];
  return kRaces[5];
}

// Synthesizes a surname with realistic diversity. Real voter rolls contain
// on the order of 10^5 distinct surnames; drawing only from the ~200-name
// pool would make thousands of distinct people share a name, which
// overstates textual collisions. Half the surnames come straight from the
// pool (frequent names), the rest get prefix/suffix morphology.
std::string MakeSurname(sablock::Rng* rng) {
  std::string stem = std::string(rng->Pick(LastNamePool()));
  if (rng->Bernoulli(0.5)) return stem;
  static const std::vector<std::string> kPrefixes = {"mc", "o", "van", "de",
                                                     "la"};
  static const std::vector<std::string> kSuffixes = {
      "son", "s", "er", "man", "ton", "ley", "field", "wood"};
  if (rng->Bernoulli(0.4)) {
    return rng->Pick(kPrefixes) + stem;
  }
  return stem + rng->Pick(kSuffixes);
}

VoterEntity MakeEntity(sablock::Rng* rng) {
  VoterEntity e;
  e.first = std::string(rng->Pick(FirstNamePool()));
  // ~30% of voters register with a middle initial as part of the first
  // name field ("mary k"); duplicates sometimes drop it (see below).
  if (rng->Bernoulli(0.3)) {
    e.first += ' ';
    e.first += static_cast<char>('a' + rng->UniformIndex(26));
  }
  e.last = MakeSurname(rng);
  e.gender = rng->Bernoulli(0.51) ? "f" : "m";
  e.race = DrawRace(rng);
  e.city = std::string(rng->Pick(CityPool()));
  e.street = std::to_string(1 + rng->UniformIndex(9999)) + " " +
             std::string(rng->Pick(StreetPool())) + " st";
  e.age = 18 + static_cast<int>(rng->UniformIndex(70));
  return e;
}

std::string MaybeUncertain(const std::string& value, double uncertain_prob,
                           sablock::Rng* rng) {
  return rng->Bernoulli(uncertain_prob) ? "u" : value;
}

// Common full-form -> nickname registrations.
std::string Nickname(const std::string& full) {
  static const std::vector<std::pair<std::string_view, std::string_view>>
      kNicknames = {
          {"william", "bill"},      {"robert", "bob"},
          {"richard", "rick"},      {"elizabeth", "liz"},
          {"katherine", "kate"},    {"margaret", "peggy"},
          {"james", "jim"},         {"jennifer", "jen"},
          {"michael", "mike"},      {"christopher", "chris"},
          {"patricia", "pat"},      {"thomas", "tom"},
          {"charles", "chuck"},     {"joseph", "joe"},
          {"daniel", "dan"},        {"matthew", "matt"},
          {"anthony", "tony"},      {"steven", "steve"},
          {"andrew", "drew"},       {"joshua", "josh"},
          {"jonathan", "jon"},      {"samantha", "sam"},
          {"benjamin", "ben"},      {"nicholas", "nick"},
          {"alexander", "alex"},    {"jessica", "jess"},
          {"timothy", "tim"},       {"gregory", "greg"},
          {"stephanie", "steph"},   {"rebecca", "becky"},
      };
  for (const auto& [name, nick] : kNicknames) {
    if (full == name) return std::string(nick);
  }
  return full;
}

Schema VoterSchema() {
  return Schema({"first_name", "last_name", "gender", "race", "city",
                 "street", "age"});
}

// Renders one record of `e`. `duplicate` records go through the error
// model (middle-initial drops, nicknames, surname changes, char edits);
// originals only carry the gender/race uncertainty.
Record RenderVoterRecord(const VoterEntity& e, bool duplicate,
                         const VoterGeneratorConfig& config,
                         sablock::Rng* rng) {
  Record rec;
  rec.values.resize(7);
  std::string first = e.first;
  std::string last = e.last;
  std::string gender = e.gender;
  std::string race = e.race;
  if (duplicate) {
    // A duplicate may drop the middle initial ("mary k" -> "mary").
    size_t space = first.find(' ');
    if (space != std::string::npos && rng->Bernoulli(0.4)) {
      first = first.substr(0, space);
    }
    // Nickname registration and surname change (marriage/divorce).
    if (rng->Bernoulli(config.nickname_prob)) {
      std::string base = space != std::string::npos
                             ? first.substr(0, first.find(' '))
                             : first;
      first = Nickname(base);
    }
    if (rng->Bernoulli(config.surname_change_prob)) {
      last = MakeSurname(rng);
    }
    // Character-edit mixture: 0, 1 or 2 edits spread over the fields.
    double u = rng->UniformReal();
    int edits = u < config.zero_edit_prob
                    ? 0
                    : (u < config.zero_edit_prob + config.one_edit_prob
                           ? 1
                           : 2);
    for (int eidx = 0; eidx < edits; ++eidx) {
      if (rng->Bernoulli(0.5)) {
        first = Corruptor::ApplyOneCharEdit(first, config.ocr_prob, rng);
      } else {
        last = Corruptor::ApplyOneCharEdit(last, config.ocr_prob, rng);
      }
    }
    if (rng->Bernoulli(config.semantic_flip_prob)) {
      gender = (gender == "m") ? "f" : "m";
    }
    if (rng->Bernoulli(config.semantic_flip_prob)) {
      race = DrawRace(rng);
    }
  }
  rec.values[0] = first;
  rec.values[1] = last;
  rec.values[2] = MaybeUncertain(gender, config.gender_uncertain_prob, rng);
  rec.values[3] = MaybeUncertain(race, config.race_uncertain_prob, rng);
  rec.values[4] = e.city;
  rec.values[5] = e.street;
  rec.values[6] = std::to_string(e.age);
  return rec;
}

}  // namespace

Dataset GenerateVoterLike(const VoterGeneratorConfig& config) {
  SABLOCK_CHECK(config.num_records >= 1);
  sablock::Rng rng(config.seed);

  // Decide cluster sizes up front: duplicates share an entity.
  std::vector<size_t> cluster_sizes;
  size_t produced = 0;
  while (produced < config.num_records) {
    size_t size = 1;
    if (rng.Bernoulli(config.duplicate_fraction)) {
      size = 2 + rng.UniformIndex(config.max_cluster_size - 1);
    }
    size = std::min(size, config.num_records - produced);
    cluster_sizes.push_back(size);
    produced += size;
  }

  std::vector<std::pair<Record, EntityId>> staged;
  staged.reserve(config.num_records);
  for (size_t ei = 0; ei < cluster_sizes.size(); ++ei) {
    VoterEntity e = MakeEntity(&rng);
    for (size_t c = 0; c < cluster_sizes[ei]; ++c) {
      staged.emplace_back(
          RenderVoterRecord(e, /*duplicate=*/c > 0, config, &rng),
          static_cast<EntityId>(ei));
    }
  }

  rng.Shuffle(&staged);
  Dataset dataset{VoterSchema()};
  for (auto& [rec, entity] : staged) {
    dataset.Add(std::move(rec), entity);
  }
  return dataset;
}

void GenerateVoterLinkagePair(const VoterGeneratorConfig& config,
                              size_t records_a, size_t records_b,
                              double overlap, Dataset* a, Dataset* b) {
  SABLOCK_CHECK(records_a >= 1 && records_b >= 1);
  SABLOCK_CHECK(overlap >= 0.0 && overlap <= 1.0);
  sablock::Rng rng(config.seed);

  // Source A: one clean record per distinct voter.
  std::vector<VoterEntity> entities;
  entities.reserve(records_a);
  *a = Dataset(VoterSchema());
  for (size_t i = 0; i < records_a; ++i) {
    entities.push_back(MakeEntity(&rng));
    a->Add(RenderVoterRecord(entities.back(), /*duplicate=*/false, config,
                             &rng),
           static_cast<EntityId>(i));
  }

  // Source B: a fraction re-describes A's voters (through the duplicate
  // error model — a later roll snapshot), the rest are new voters.
  *b = Dataset(VoterSchema());
  EntityId next_entity = static_cast<EntityId>(records_a);
  for (size_t i = 0; i < records_b; ++i) {
    if (rng.Bernoulli(overlap)) {
      size_t ei = rng.UniformIndex(records_a);
      b->Add(RenderVoterRecord(entities[ei], /*duplicate=*/true, config,
                               &rng),
             static_cast<EntityId>(ei));
    } else {
      VoterEntity fresh = MakeEntity(&rng);
      b->Add(RenderVoterRecord(fresh, /*duplicate=*/false, config, &rng),
             next_entity++);
    }
  }
}

}  // namespace sablock::data
