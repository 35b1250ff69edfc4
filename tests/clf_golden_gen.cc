// Writes the golden CLF parse corpus (tests/data/clf_golden.tsv) that
// clf_golden_test replays: a fixed-seed mix of clean Common and Combined
// lines, lines with one field perturbed, byte mutations and targeted
// cases for every reject reason, each with the outcome the parser gave
// it — its fields, or its exact error text.
//
// The corpus pins the parser's behaviour, so regenerate it only when a
// change to what the parser accepts or reports is intended:
//
//   ./build/tests/clf_golden_gen > tests/data/clf_golden.tsv
//
// Row format (one row per corpus line, fields separated by tabs; every
// field escaped with EscapeField, so no field holds a tab or newline):
//
//   <line> OK <ip> <timestamp> <method> <url> <protocol> <status> <bytes>
//          <referrer> <user-agent>
//   <line> ERR <message>

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "wum/clf/clf_parser.h"
#include "wum/common/random.h"
#include "wum/common/time.h"

namespace wum {
namespace {

/// Printable ASCII stays as is, a backslash doubles, every other byte
/// becomes \xHH.
std::string EscapeField(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '\\') {
      out += "\\\\";
    } else if (byte >= 0x20 && byte < 0x7f) {
      out += c;
    } else {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\x%02x", byte);
      out += buffer;
    }
  }
  return out;
}

template <typename T>
const T& Pick(Rng* rng, const std::vector<T>& choices) {
  return choices[static_cast<std::size_t>(rng->NextBounded(choices.size()))];
}

std::string Digits(Rng* rng, int count) {
  std::string out;
  for (int i = 0; i < count; ++i) {
    out += static_cast<char>('0' + rng->NextBounded(10));
  }
  return out;
}

/// A zone offset: mostly valid "+HHMM"/"-HHMM", including odd ones the
/// parser accepts (hours past 23).
std::string Zone(Rng* rng) {
  const std::string sign = rng->Bernoulli(0.5) ? "+" : "-";
  return sign + Digits(rng, 4);
}

/// A timestamp between the brackets. `perturb` picks a malformed or
/// boundary variant instead of a clean one.
std::string Timestamp(Rng* rng, bool perturb) {
  // 1990..2030, so leap days and century years come up.
  const TimeSeconds t = 631152000 + static_cast<TimeSeconds>(
                                        rng->NextBounded(1262304000));
  std::string clean = FormatClfTimestamp(t);
  if (rng->Bernoulli(0.3)) clean.replace(21, 5, Zone(rng));
  if (!perturb) return clean;
  static const std::vector<std::string> kVariants = {
      "29/Feb/2004:10:00:00 +0000", "29/Feb/2000:10:00:00 +0000",
      "29/Feb/1900:10:00:00 +0000", "29/Feb/2005:10:00:00 +0000",
      "31/Apr/2006:10:00:00 +0000", "00/Jan/2006:10:00:00 +0000",
      "32/Jan/2006:10:00:00 +0000", "31/Dec/2006:23:59:59 -2359",
      "01/Jan/2006:24:00:00 +0000", "01/Jan/2006:23:60:00 +0000",
      "01/Jan/2006:23:59:60 +0000", "01/jan/2006:10:00:00 +0000",
      "01/JAN/2006:10:00:00 +0000", "01/Foo/2006:10:00:00 +0000",
      "1/Jan/2006:10:00:00 +0000",  "01-Jan/2006:10:00:00 +0000",
      "01/Jan-2006:10:00:00 +0000", "01/Jan/206:10:00:00 +0000",
      "01/Jan/2006 10:00:00 +0000", "01/Jan/2006:1:00:00 +0000",
      "01/Jan/2006:10-00:00 +0000", "01/Jan/2006:10:00-00 +0000",
      "01/Jan/2006:10:00:00+0000",  "01/Jan/2006:10:00:00  0000",
      "01/Jan/2006:10:00:00 *0000", "01/Jan/2006:10:00:00 +00a0",
      "01/Jan/2006:10:00:00 +000",  "01/Jan/2006:10:00:00 +0000x",
      "01/Jan/2006:10:00:00 +0000 extra", "01/Jan/2006:10:00:00 +9999",
      "01/Jan/0000:00:00:00 +0000", "31/Dec/9999:23:59:59 +0000",
      "",                           "-",
      "01/Jan/2006:10:00:00\t+0000", "0a/Jan/2006:10:00:00 +0000",
  };
  switch (rng->NextBounded(4)) {
    case 0:
      return Pick(rng, kVariants);
    case 1:  // truncated
      return clean.substr(0, static_cast<std::size_t>(rng->NextBounded(26)));
    case 2:  // longer than 26 bytes
      return clean + Pick(rng, std::vector<std::string>{"0", " ", "x", ":00",
                                                        "\t", " +0100"});
    default: {  // one byte replaced
      std::string text = clean;
      text[static_cast<std::size_t>(rng->NextBounded(text.size()))] =
          Pick(rng, std::vector<char>{'0', '9', 'a', ' ', '/', ':', '+', '-',
                                      'X', '\t'});
      return text;
    }
  }
}

std::string Url(Rng* rng) {
  static const std::vector<std::string> kUrls = {
      "/pages/p1.html", "/pages/p42.html", "/img/logo.gif", "/a.JPG",
      "/s.css?v=2",     "/search?q=a+b",   "/",             "/x%20y",
      "/pages/p7.HTML", "/dir/",           "-",             "/js/app.js",
  };
  return rng->Bernoulli(0.5)
             ? "/pages/p" + std::to_string(rng->NextBounded(500)) + ".html"
             : Pick(rng, kUrls);
}

/// The quoted request, the quotes included.
std::string Request(Rng* rng, bool perturb) {
  std::string method = Pick(rng, std::vector<std::string>{"GET", "GET", "GET",
                                                          "POST", "HEAD"});
  std::string url = Url(rng);
  std::string protocol =
      Pick(rng, std::vector<std::string>{"HTTP/1.0", "HTTP/1.1"});
  std::string sep1 = " ";
  std::string sep2 = " ";
  std::string extra;
  std::string open = "\"";
  std::string close = "\"";
  if (perturb) {
    switch (rng->NextBounded(10)) {
      case 0:
        method = Pick(rng, std::vector<std::string>{"get", "PUT", "DELETE",
                                                    "GETX", "-", "G\tET"});
        break;
      case 1:
        protocol = Pick(rng, std::vector<std::string>{
                                 "HTTP/2.0", "http/1.1", "HTTP/1.1\r",
                                 "HTTP/1.", "HTTP/1.10", "-"});
        break;
      case 2:
        sep1 = Pick(rng, std::vector<std::string>{"  ", "\t", "   "});
        sep2 = Pick(rng, std::vector<std::string>{" ", "  ", "\t"});
        break;
      case 3:
        extra = Pick(rng, std::vector<std::string>{" extra", " ", "  ",
                                                   " HTTP/1.1"});
        break;
      case 4:  // too few parts
        switch (rng->NextBounded(3)) {
          case 0:
            url.clear();
            sep2.clear();
            break;
          case 1:
            protocol.clear();
            break;
          default:
            method.clear();
            url.clear();
            sep1.clear();
            break;
        }
        break;
      case 5:
        open.clear();
        break;
      case 6:
        close.clear();
        break;
      case 7:
        url = Pick(rng, std::vector<std::string>{"/a b", "/a\"b", "/a\tb"});
        break;
      case 8:
        open = " \"";
        extra = " ";
        break;
      default:
        method = " " + method;
        break;
    }
  }
  return open + method + sep1 + url + sep2 + protocol + extra + close;
}

std::string StatusField(Rng* rng, bool perturb) {
  if (!perturb) {
    return Pick(rng, std::vector<std::string>{"200", "200", "200", "304",
                                              "404", "500", "302", "206"});
  }
  return Pick(rng, std::vector<std::string>{
                       "99", "100", "599", "600", "0", "-200", "+200",
                       "0200", "2a0", "", "-", "99999999999999999999",
                       "9223372036854775807", "-9223372036854775808",
                       "200.0", "\xc2\xb2", "1e3"});
}

std::string Bytes(Rng* rng, bool perturb) {
  if (!perturb) {
    return rng->Bernoulli(0.1) ? "-" : std::to_string(rng->NextBounded(20000));
  }
  return Pick(rng, std::vector<std::string>{
                       "-1", "-0", "+5", "0", "--", "- ", "9223372036854775807",
                       "9223372036854775808", "-9223372036854775809", "12x",
                       "0x10", "00012", "1 2", "\t12"});
}

/// Everything after the bytes field, its leading separator included.
std::string Extras(Rng* rng, bool combined, bool perturb) {
  const std::string ref = Pick(
      rng, std::vector<std::string>{"-", "http://www.site.example/pages/p7.html",
                                    "/pages/p3.html", "", "http://x.example/"});
  const std::string ua = Pick(
      rng, std::vector<std::string>{"-", "Mozilla/4.0 (compatible)", "curl/7",
                                    "", "crawler/1.0"});
  if (!perturb) {
    return combined ? " \"" + ref + "\" \"" + ua + "\"" : "";
  }
  static const std::vector<std::string> kVariants = {
      " ref \"ua\"",       " \"ref",           " \"ref\" ua",
      " \"ref\" \"ua",     " \"ref\" \"ua\" x", " \"ref\"",
      " \"ref\"\"ua\"",    "\t\"ref\"\t\"ua\"", "  \"ref\"   \"ua\"  ",
      " \"-\" \"-\" \"-\"", " -",                " \"\" \"\"",
      " \"ref\" \"ua\"\t", " x",                " \"a\"b\" \"c\"",
  };
  return Pick(rng, kVariants);
}

std::string Host(Rng* rng, bool perturb) {
  const std::string ip = "10." + std::to_string(rng->NextBounded(256)) + "." +
                         std::to_string(rng->NextBounded(256)) + "." +
                         std::to_string(rng->NextBounded(256));
  if (!perturb) return ip;
  return Pick(rng, std::vector<std::string>{"", "-", "host.example",
                                            "10.0.0.1\t", "[::1]", "a\"b"});
}

/// One line with each field clean or, with `perturb_share`, perturbed.
std::string RandomLine(Rng* rng, double perturb_share) {
  auto perturb = [&] { return rng->Bernoulli(perturb_share); };
  const bool combined = rng->Bernoulli(0.5);
  std::string line;
  if (perturb()) line += Pick(rng, std::vector<std::string>{" ", "\t", "\r", "\v"});
  line += Host(rng, perturb());
  line += perturb() ? Pick(rng, std::vector<std::string>{
                                    "", " - ", " user name ", " -", "  -  -  ",
                                    " [x] - "})
                    : " - - ";
  const bool bad_brackets = perturb();
  const std::size_t bracket_case = rng->NextBounded(3);
  line += bad_brackets && bracket_case == 0 ? "" : "[";
  line += Timestamp(rng, perturb());
  line += bad_brackets && bracket_case == 1 ? "" : "]";
  if (bad_brackets && bracket_case == 2) line += "]";
  line += perturb() ? Pick(rng, std::vector<std::string>{"", "  ", "\t"}) : " ";
  line += Request(rng, perturb());
  line += perturb() ? Pick(rng, std::vector<std::string>{"", "  ", "\t"}) : " ";
  line += StatusField(rng, perturb());
  line += perturb() ? Pick(rng, std::vector<std::string>{"", "  ", "\t"}) : " ";
  line += Bytes(rng, perturb());
  line += Extras(rng, combined, perturb());
  if (perturb()) {
    line += Pick(rng, std::vector<std::string>{" ", "\r", "\t\r", "\f", "  "});
  }
  return line;
}

/// A clean line with `count` random single-byte edits (replace, insert,
/// delete) drawn from bytes the parser keys on.
std::string Mutate(std::string text, Rng* rng, int count) {
  static const std::string kBytes = " \"[]-\t\r/:+0129aGHTP.\x80\xff";
  for (int i = 0; i < count && !text.empty(); ++i) {
    const std::size_t pos =
        static_cast<std::size_t>(rng->NextBounded(text.size()));
    const char byte = kBytes[static_cast<std::size_t>(
        rng->NextBounded(kBytes.size()))];
    switch (rng->NextBounded(3)) {
      case 0:
        text[pos] = byte;
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos), byte);
        break;
      default:
        text.erase(text.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
    }
  }
  return text;
}

/// Hand-written lines, one or more per reject reason, plus the accepted
/// edge cases.
std::vector<std::string> TargetedLines() {
  const std::string ok =
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET /pages/p1.html "
      "HTTP/1.1\" 200 512";
  return {
      "",
      " ",
      "\t\r",
      "\v\f",
      ok,
      ok + "\r",
      "\t" + ok + " \r",
      ok + " \"-\" \"-\"",
      ok + " \"http://www.site.example/pages/p2.html\" \"Mozilla/4.0\"",
      "nospaces",
      "10.0.0.1 - - 02/Jan/2006:15:04:05 +0000 \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000 \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [02/Jan/2006] \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [xx/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [02/Jxn/2006:15:04:05 +0000] \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [02/Jan/20x6:15:04:05 +0000] \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [02/Jan/2006:1x:04:05 +0000] \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 x0000] \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +00x0] \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [30/Feb/2006:15:04:05 +0000] \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [29/Feb/2008:15:04:05 -0130] \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [29/Feb/2100:15:04:05 +0000] \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [29/Feb/2400:15:04:05 +0000] \"GET / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000trailing] \"GET / HTTP/1.1\" "
      "200 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] GET / HTTP/1.1 200 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1 200 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1 x\" 200 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET /\" 200 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"\" 200 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"PUT / HTTP/1.1\" 200 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/2\" 200 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1\"",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1\" 200",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1\" 2x0 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1\" 99 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1\" 600 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1\" "
      "99999999999999999999 1",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1\" 200 1x",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1\" 200 -3",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1\" 200 -",
      "10.0.0.1 - - [02/Jan/2006:15:04:05 +0000] \"GET / HTTP/1.1\" 200 "
      "9223372036854775808",
      ok + " ref \"ua\"",
      ok + " \"ref",
      ok + " \"ref\"",
      ok + " \"ref\" ua",
      ok + " \"ref\" \"ua",
      ok + " \"ref\" \"ua\" tail",
      ok + "\t\"ref\"\t\"ua\"\t",
  };
}

void WriteRow(const std::string& line) {
  std::string row = EscapeField(line);
  Result<LogRecordRef> parsed = ParseClfLineRef(line);
  if (!parsed.ok()) {
    row += "\tERR\t" + EscapeField(parsed.status().message());
  } else {
    const LogRecordRef& r = *parsed;
    row += "\tOK\t" + EscapeField(r.client_ip) + "\t" +
           std::to_string(r.timestamp) + "\t" +
           std::string(HttpMethodToString(r.method)) + "\t" +
           EscapeField(r.url) + "\t" + EscapeField(r.protocol) + "\t" +
           std::to_string(r.status_code) + "\t" + std::to_string(r.bytes) +
           "\t" + EscapeField(r.referrer) + "\t" + EscapeField(r.user_agent);
  }
  std::cout << row << '\n';
}

}  // namespace
}  // namespace wum

int main() {
  using namespace wum;
  std::vector<std::string> lines = TargetedLines();
  Rng rng(20061);
  for (int i = 0; i < 600; ++i) lines.push_back(RandomLine(&rng, 0.0));
  for (int i = 0; i < 1800; ++i) lines.push_back(RandomLine(&rng, 0.12));
  for (int i = 0; i < 600; ++i) {
    lines.push_back(Mutate(RandomLine(&rng, 0.0), &rng,
                           1 + static_cast<int>(rng.NextBounded(3))));
  }
  for (const std::string& line : lines) {
    // ParseChunk splits on '\n', so no corpus line holds one.
    if (line.find('\n') == std::string::npos) WriteRow(line);
  }
  return 0;
}
