// RegExp — a backtracking regular-expression engine run over synthetic log lines (the suite's
// member replays regexes from popular sites; the character is NFA backtracking over strings).
// Supported syntax: literals, '.', character classes [a-z0-9], '*', '+', '?', alternation '|'
// and grouping '(...)'.
#include "src/apps/v8bench/kernels.h"

#include <cstring>

namespace ebbrt {
namespace v8bench {
namespace {

enum class NodeType : std::uint8_t {
  kChar,
  kAny,
  kClass,
  kConcat,
  kAlt,
  kStar,   // also Plus/Quest via min/max
  kEnd,
};

struct ReNode {
  NodeType type;
  char ch = 0;
  bool char_class[128] = {};
  ReNode* left = nullptr;
  ReNode* right = nullptr;
  int min = 0;  // repetition
  int max = 0;  // -1 = unbounded
};

class Parser {
 public:
  Parser(Env& env, const char* pattern) : env_(env), p_(pattern) {}

  ReNode* Parse() { return ParseAlt(); }

 private:
  ReNode* New(NodeType type) {
    auto* node = env_.New<ReNode>();
    node->type = type;
    return node;
  }

  ReNode* ParseAlt() {
    ReNode* left = ParseConcat();
    while (*p_ == '|') {
      ++p_;
      ReNode* node = New(NodeType::kAlt);
      node->left = left;
      node->right = ParseConcat();
      left = node;
    }
    return left;
  }

  ReNode* ParseConcat() {
    ReNode* left = nullptr;
    while (*p_ != 0 && *p_ != '|' && *p_ != ')') {
      ReNode* atom = ParseRepeat();
      if (left == nullptr) {
        left = atom;
      } else {
        ReNode* node = New(NodeType::kConcat);
        node->left = left;
        node->right = atom;
        left = node;
      }
    }
    return left != nullptr ? left : New(NodeType::kEnd);
  }

  ReNode* ParseRepeat() {
    ReNode* atom = ParseAtom();
    while (*p_ == '*' || *p_ == '+' || *p_ == '?') {
      ReNode* node = New(NodeType::kStar);
      node->left = atom;
      node->min = *p_ == '+' ? 1 : 0;
      node->max = *p_ == '?' ? 1 : -1;
      ++p_;
      atom = node;
    }
    return atom;
  }

  ReNode* ParseAtom() {
    if (*p_ == '(') {
      ++p_;
      ReNode* inner = ParseAlt();
      if (*p_ == ')') {
        ++p_;
      }
      return inner;
    }
    if (*p_ == '[') {
      ++p_;
      ReNode* node = New(NodeType::kClass);
      while (*p_ != 0 && *p_ != ']') {
        char lo = *p_++;
        char hi = lo;
        if (*p_ == '-' && p_[1] != ']' && p_[1] != 0) {
          ++p_;
          hi = *p_++;
        }
        for (char c = lo; c <= hi; ++c) {
          node->char_class[static_cast<unsigned char>(c) & 127] = true;
        }
      }
      if (*p_ == ']') {
        ++p_;
      }
      return node;
    }
    if (*p_ == '.') {
      ++p_;
      return New(NodeType::kAny);
    }
    ReNode* node = New(NodeType::kChar);
    node->ch = *p_++;
    return node;
  }

  Env& env_;
  const char* p_;
};

// Backtracking matcher: Match(node, s, k) tries node against s and calls k(rest).
using Cont = bool (*)(const char* s, void* ctx);

bool MatchNode(const ReNode* node, const char* s, Cont k, void* ctx);

struct ConcatCtx {
  const ReNode* right;
  Cont k;
  void* ctx;
};
bool ConcatCont(const char* s, void* raw) {
  auto* c = static_cast<ConcatCtx*>(raw);
  return MatchNode(c->right, s, c->k, c->ctx);
}

struct StarCtx {
  const ReNode* node;
  int count;
  Cont k;
  void* ctx;
};
bool StarCont(const char* s, void* raw);

bool MatchStar(const ReNode* node, const char* s, int count, Cont k, void* ctx) {
  // Greedy: try one more repetition first (bounded by max), then fall back to continuing.
  if (node->max < 0 || count < node->max) {
    StarCtx next{node, count + 1, k, ctx};
    if (MatchNode(node->left, s, &StarCont, &next)) {
      return true;
    }
  }
  if (count >= node->min) {
    return k(s, ctx);
  }
  return false;
}

bool StarCont(const char* s, void* raw) {
  auto* c = static_cast<StarCtx*>(raw);
  return MatchStar(c->node, s, c->count, c->k, c->ctx);
}

bool MatchNode(const ReNode* node, const char* s, Cont k, void* ctx) {
  switch (node->type) {
    case NodeType::kChar:
      return *s == node->ch && k(s + 1, ctx);
    case NodeType::kAny:
      return *s != 0 && k(s + 1, ctx);
    case NodeType::kClass:
      return *s != 0 && node->char_class[static_cast<unsigned char>(*s) & 127] &&
             k(s + 1, ctx);
    case NodeType::kConcat: {
      ConcatCtx c{node->right, k, ctx};
      return MatchNode(node->left, s, &ConcatCont, &c);
    }
    case NodeType::kAlt:
      return MatchNode(node->left, s, k, ctx) || MatchNode(node->right, s, k, ctx);
    case NodeType::kStar:
      return MatchStar(node, s, 0, k, ctx);
    case NodeType::kEnd:
      return k(s, ctx);
  }
  return false;
}

bool Accept(const char*, void*) { return true; }  // unanchored tail

bool Search(const ReNode* re, const char* s) {
  for (const char* p = s; *p != 0; ++p) {
    if (MatchNode(re, p, &Accept, nullptr)) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::uint64_t RunRegExp(Env& env) {
  const char* patterns[] = {
      "[a-z]+@[a-z]+.(com|org|net)",
      "GET /([a-z0-9/]+)?(index|home).(html|php)",
      "([0-9]+.){3}[0-9]+",
      "err(or|)[: ]+[a-z ]*fail",
      "(ab|ba)*(aab|abb)+c?d",
  };
  ReNode* compiled[5];
  for (int i = 0; i < 5; ++i) {
    compiled[i] = Parser(env, patterns[i]).Parse();
  }
  // Synthetic corpus: log-ish lines, deterministic.
  std::uint64_t rng = 0xC0FFEE;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  const char* fragments[] = {"alice@example.com ",  "GET /docs/index.html ",
                             "10.0.0.2 ",           "error: connection fail ",
                             "abbaabbaabbaabbacd ", "the quick brown fox ",
                             "12.34.56 ",           "bob at example dot org "};
  std::uint64_t checksum = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    char line[256];
    std::size_t len = 0;
    for (int f = 0; f < 4; ++f) {
      const char* frag = fragments[next() % 8];
      std::size_t flen = std::strlen(frag);
      if (len + flen < sizeof(line) - 1) {
        std::memcpy(line + len, frag, flen);
        len += flen;
      }
    }
    line[len] = 0;
    for (int i = 0; i < 5; ++i) {
      checksum = checksum * 3 + (Search(compiled[i], line) ? 1 : 0);
    }
  }
  return checksum;
}

}  // namespace v8bench
}  // namespace ebbrt
