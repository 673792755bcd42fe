// EarleyBoyer (parser half) — an Earley chart parser over an ambiguous expression grammar.
// The V8 suite runs a Scheme-to-JS translation of Earley parsing + the Boyer theorem prover;
// we reproduce the Earley half, which dominates allocation behaviour (chart items are created
// in large numbers per input symbol). Documented under Substitutions in docs/ARCHITECTURE.md.
#include "src/apps/v8bench/kernels.h"

#include <cstring>

namespace ebbrt {
namespace v8bench {
namespace {

// Grammar (deliberately ambiguous so charts grow):
//   E -> E + E | E * E | ( E ) | n
enum Symbol : std::uint8_t { kE, kPlus, kTimes, kLparen, kRparen, kNum, kNumSymbols };

struct Production {
  Symbol lhs;
  Symbol rhs[3];
  int rhs_len;
};

const Production kGrammar[] = {
    {kE, {kE, kPlus, kE}, 3},
    {kE, {kE, kTimes, kE}, 3},
    {kE, {kLparen, kE, kRparen}, 3},
    {kE, {kNum, kNum, kNum}, 1},  // rhs_len=1: only first element used
};
constexpr int kNumProductions = 4;

struct Item {
  std::uint8_t production;
  std::uint8_t dot;
  std::uint16_t origin;
  Item* next = nullptr;  // chain within the chart set
};

struct ChartSet {
  Item* head = nullptr;
  int count = 0;
};

bool Contains(const ChartSet& set, std::uint8_t production, std::uint8_t dot,
              std::uint16_t origin) {
  for (Item* item = set.head; item != nullptr; item = item->next) {
    if (item->production == production && item->dot == dot && item->origin == origin) {
      return true;
    }
  }
  return false;
}

void Add(Env& env, ChartSet& set, std::uint8_t production, std::uint8_t dot,
         std::uint16_t origin) {
  if (Contains(set, production, dot, origin)) {
    return;
  }
  auto* item = env.New<Item>();
  item->production = production;
  item->dot = dot;
  item->origin = origin;
  item->next = set.head;
  set.head = item;
  ++set.count;
}

// Parses `input` (array of Symbols) and returns total chart items (the work measure).
std::uint64_t Parse(Env& env, const Symbol* input, int len) {
  auto* chart = static_cast<ChartSet*>(env.Alloc(sizeof(ChartSet) * (len + 1)));
  for (int i = 0; i <= len; ++i) {
    chart[i] = ChartSet{};
  }
  // Seed: all E productions at position 0.
  for (int p = 0; p < kNumProductions; ++p) {
    Add(env, chart[0], static_cast<std::uint8_t>(p), 0, 0);
  }
  for (int pos = 0; pos <= len; ++pos) {
    // Worklist processing: iterate until closure (items prepend, so rescan).
    bool changed = true;
    while (changed) {
      changed = false;
      for (Item* item = chart[pos].head; item != nullptr; item = item->next) {
        const Production& prod = kGrammar[item->production];
        if (item->dot < prod.rhs_len) {
          Symbol next_sym = prod.rhs[item->dot];
          if (next_sym == kE) {
            // Predict.
            int before = chart[pos].count;
            for (int p = 0; p < kNumProductions; ++p) {
              Add(env, chart[pos], static_cast<std::uint8_t>(p), 0,
                  static_cast<std::uint16_t>(pos));
            }
            changed |= chart[pos].count != before;
          } else if (pos < len && input[pos] == next_sym) {
            // Scan.
            int before = chart[pos + 1].count;
            Add(env, chart[pos + 1], item->production,
                static_cast<std::uint8_t>(item->dot + 1), item->origin);
            changed |= chart[pos + 1].count != before;
          }
        } else {
          // Complete: advance items in the origin set waiting on E.
          int before = chart[pos].count;
          for (Item* waiting = chart[item->origin].head; waiting != nullptr;
               waiting = waiting->next) {
            const Production& wprod = kGrammar[waiting->production];
            if (waiting->dot < wprod.rhs_len && wprod.rhs[waiting->dot] == kE) {
              Add(env, chart[pos], waiting->production,
                  static_cast<std::uint8_t>(waiting->dot + 1), waiting->origin);
            }
          }
          changed |= chart[pos].count != before;
        }
      }
    }
  }
  std::uint64_t total = 0;
  for (int i = 0; i <= len; ++i) {
    total += static_cast<std::uint64_t>(chart[i].count);
  }
  return total;
}

}  // namespace

std::uint64_t RunEarley(Env& env) {
  // Inputs: alternating n + n * n ... with parenthesized clusters; ambiguity makes chart
  // sizes superlinear in length.
  std::uint64_t checksum = 0;
  for (int round = 0; round < 12; ++round) {
    env.Reset();
    Symbol input[64];
    int len = 0;
    int terms = 8 + round;
    for (int t = 0; t < terms && len < 60; ++t) {
      if (t > 0) {
        input[len++] = (t % 2) ? kPlus : kTimes;
      }
      if (t % 3 == 2) {
        input[len++] = kLparen;
        input[len++] = kNum;
        input[len++] = kPlus;
        input[len++] = kNum;
        input[len++] = kRparen;
      } else {
        input[len++] = kNum;
      }
    }
    checksum += Parse(env, input, len);
  }
  return checksum;
}

}  // namespace v8bench
}  // namespace ebbrt
