"""desk_cli: questions asked of ``dimdiff`` as a user asks them at a desk.

Each request is one in-process ``cli.main([...])`` call with ``--json``,
stdout and stderr captured.  Every round writes fresh profile files (before
its requests are timed) and asks several questions of each, so requests
share work the way a user exploring one instance does:

* goods with 4 agents and 8 items (one profile) and with 3 agents and 9
  items (eleven): the three existence searches (nddpr, necpr, nddef) on
  each, and one more question on five of them (the three checks, a compare,
  the protocol).  All but one of them have two agents sharing a best item,
  so their searches are exhaustive;
* two goods profiles with 2 agents and 16 items, one whose agents share
  their best item and one whose agents do not: a full sweep of the
  balanced-split kernel on each, a condition and two checks;
* chores with 2 agents and 8 items, and with 3 agents and 9 items: the
  protocols (networkx max flow), the searches, a check and a compare;
* two malformed profiles (``"items": 5``, and a top-level JSON list) that
  must be refused with exit code 2.  They are the same in every round and
  every run; today a TypeError escapes ``cli.main`` on both, so they count
  as failed requests.

Of the 54 requests of a round, 33 are exhaustive searches.  The median
falls in the middle of the ten exhaustive nddef searches on 3 x 9 profiles
and the 90th percentile among the exhaustive nddpr and necpr ones:
requests dominated by the program's own work, whose cost hardly depends on
the seed, rather than the ~2 ms requests that are mostly argument and
profile parsing, the searches that stop at a witness, or the edge between
two groups.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field

import checks
from dimdiff import cli

MALFORMED = {
    "items_not_a_list.json": {
        "kind": "goods", "items": 5,
        "agents": [{"name": "a0", "ranking": ["i0", "i1"]}],
    },
    "top_level_list.json": [
        {"kind": "goods", "items": ["i0", "i1"],
         "agents": [{"name": "a0", "ranking": ["i0", "i1"]}]},
    ],
}


_NAMED = ("--goal", "--method", "--criterion", "--extension", "--relation")
# A witness of the key goal found by search implies that the (goal, method)
# it maps to does not answer "no": NEC proportionality and NDD envy-freeness
# imply NDD proportionality; the nidpr condition is necessary.
_IMPLIED = {
    "necpr": ("nddpr", "search"),
    "nddef": ("nddpr", "search"),
    "nidpr": ("nidpr", "condition"),
}


@dataclass
class Question:
    argv: list
    profile: dict = None  # None for the malformed profiles
    allocation: dict = field(default_factory=dict)  # for check
    bundles: tuple = ()  # (agent, x, y, relation) for compare


def random_profile(rng, kind, agents, items, share_best=None):
    """Uniform random rankings; with share_best, the first two agents share
    their best item, or else all agents' best items are pairwise distinct."""
    names = [f"i{k}" for k in range(items)]
    rankings = [rng.sample(names, items) for _ in range(agents)]
    if share_best:
        rankings[1].remove(rankings[0][0])
        rankings[1].insert(0, rankings[0][0])
    elif share_best is not None:
        for a, ranking in enumerate(rankings):
            taken = {r[0] for r in rankings[:a]}
            top = next(item for item in ranking if item not in taken)
            ranking.remove(top)
            ranking.insert(0, top)
    return {
        "kind": kind,
        "items": names,
        "agents": [{"name": f"a{a}", "ranking": r} for a, r in enumerate(rankings)],
    }


def random_balanced(rng, profile):
    items = rng.sample(profile["items"], len(profile["items"]))
    n = len(profile["agents"])
    return {a["name"]: items[k::n] for k, a in enumerate(profile["agents"])}


def round_robin(profile):
    """Picks in the order 1..n, n..1, each agent taking its best remaining item."""
    agents = profile["agents"]
    n = len(agents)
    order = list(range(n)) + list(range(n))[::-1]
    taken, bundles = set(), {a["name"]: [] for a in agents}
    for pick in range(len(profile["items"])):
        agent = agents[order[pick % len(order)]]
        item = next(i for i in agent["ranking"] if i not in taken)
        taken.add(item)
        bundles[agent["name"]].append(item)
    return bundles


class DeskCli:
    name = "desk_cli"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir / "profiles"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.malformed = []
        for file_name, payload in MALFORMED.items():
            path = self.dir / file_name
            path.write_text(json.dumps(payload))
            self.malformed.append(str(path))

    def round(self, index):
        rng = random.Random(f"desk_cli/{self.seed}/{index}")
        questions = []

        def ask(profile, *argv, **details):
            questions.append(Question(list(argv) + ["--json"], profile, **details))

        def write(key, profile):
            path = str(self.dir / f"{key}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(profile, handle)
            return path

        def solve(profile, path, goal, method):
            ask(profile, "solve", "--profile", path, "--goal", goal, "--method", method)

        def check(profile, path, criterion, extension, allocation):
            ask(profile, "check", "--profile", path, "--allocation", json.dumps(allocation),
                "--criterion", criterion, "--extension", extension, allocation=allocation)

        def compare(profile, path, relation):
            agent = rng.choice(profile["agents"])["name"]
            x = rng.sample(profile["items"], 3)
            y = rng.sample(profile["items"], 3)
            ask(profile, "compare", "--profile", path, "--agent", agent,
                "--x", f"{x[0]}*2,{x[1]},{x[2]}", "--y", ",".join(y), "--relation", relation,
                bundles=(agent, [x[0]] + x, y, relation))

        # Agents that share a best item admit no NDD-proportional allocation,
        # hence no NEC-proportional or NDD-envy-free one: all three searches
        # then sweep every balanced allocation, at a cost that hardly depends
        # on the draw.  One profile in twelve has distinct best items, so that
        # witnesses are found and checked too.
        goods = [random_profile(rng, "goods", 4, 8, share_best=True)]
        goods += [random_profile(rng, "goods", 3, 9, share_best=True) for _ in range(10)]
        goods.append(random_profile(rng, "goods", 3, 9, share_best=False))
        extras = {
            0: lambda p, f: check(p, f, "pe", "ndd", random_balanced(rng, p)),
            1: lambda p, f: check(p, f, "pr", "ndd", random_balanced(rng, p)),
            2: lambda p, f: compare(p, f, "ndd"),
            3: lambda p, f: check(p, f, "ef", "nec", random_balanced(rng, p)),
            11: lambda p, f: solve(p, f, "nddpr", "protocol"),
        }
        for k, profile in enumerate(goods):
            path = write(f"goods{k}", profile)
            for goal in ("nddpr", "necpr", "nddef"):
                solve(profile, path, goal, "search")
            if k in extras:
                extras[k](profile, path)

        shared = random_profile(rng, "goods", 2, 16, share_best=True)
        path = write("pair_shared", shared)
        solve(shared, path, "nddpr", "search")
        check(shared, path, "ef", "ndd", round_robin(shared))
        apart = random_profile(rng, "goods", 2, 16, share_best=False)
        path = write("pair_apart", apart)
        solve(apart, path, "nddpr", "search")
        solve(apart, path, "nddpr", "condition")
        check(apart, path, "pr", "ndd", round_robin(apart))

        chores2 = random_profile(rng, "chores", 2, 8)
        path = write("chores2", chores2)
        solve(chores2, path, "nidpr", "protocol")
        solve(chores2, path, "nidpr", "search")
        check(chores2, path, "pr", "nid", random_balanced(rng, chores2))
        chores3 = random_profile(rng, "chores", 3, 9)
        path = write("chores3", chores3)
        solve(chores3, path, "nidpr", "condition")
        solve(chores3, path, "nidpr", "search")
        compare(chores3, path, "nid")

        for path in self.malformed:
            ask(None, "solve", "--profile", path, "--goal", "nddpr", "--method", "condition")
        return questions

    def call(self, question):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(question.argv)
        return code, out.getvalue()

    def check(self, index, questions, answers):
        problems = []
        exists = {}  # (profile id, goal, method) -> exists flag of a solve answer
        for question, answer in zip(questions, answers):
            if isinstance(answer, Exception):
                continue
            code, text = answer
            argv = question.argv
            where = " ".join(argv[:1] + [v for k, v in zip(argv, argv[1:]) if k in _NAMED])
            if question.profile is None:
                if code != 2:
                    problems.append(f"malformed profile: exit {code}, expected 2")
                continue
            try:
                payload = json.loads(text)
            except ValueError:
                problems.append(f"{where}: exit {code} without a JSON answer")
                continue
            found = answer_problems(question, code, payload)
            problems += [f"{where} on {argv[2]}: {p}" for p in found]
            if argv[0] == "solve":
                exists[(id(question.profile), argv[4], argv[6])] = payload.get("exists")
        for (profile, goal, method), flag in exists.items():
            implied = _IMPLIED.get(goal)
            if flag and method == "search" and implied:
                if exists.get((profile,) + implied) is False:
                    problems.append(f"{goal} found by search but {' '.join(implied)} says no")
        return problems

    def summary(self):
        return {}


def answer_problems(question, code, payload):
    """Problems with one answer, checked against the benchmark's own tests."""
    profile = question.profile
    names = [a["name"] for a in profile["agents"]]
    rankings = [a["ranking"] for a in profile["agents"]]
    levels = [checks.levels_of(r) for r in rankings]
    n = len(rankings)
    command = question.argv[0]
    expected_code = {True: 0, False: 1, None: 3}

    if command == "compare":
        agent, x, y, relation = question.bundles
        a = names.index(agent)
        own = checks.DOMINATES[relation](x, y, levels[a])
        if payload["holds"] != own or code != expected_code[own]:
            return [f"compare says {payload['holds']} (exit {code}), own test says {own}"]
        if not own:
            if "refuting_utility" not in payload:
                return ["negative compare without a refuting utility"]
            values = checks.parse_utility(payload["refuting_utility"])
            return checks.refutation_problems(values, rankings[a], relation, x, y)
        return []

    if command == "check":
        criterion, extension = question.argv[6], question.argv[8]
        bundles = [question.allocation[name] for name in names]
        result = payload["result"]
        if code != expected_code[result]:
            return [f"exit {code} disagrees with result {result}"]
        if criterion == "pr":
            own = all(checks.proportional(b, n, lv, extension) for b, lv in zip(bundles, levels))
        elif criterion == "ef":
            own = checks.envy_free(bundles, levels, extension)
        else:
            own = None  # positive Pareto verdicts are not re-decided
        if own is not None and own != result:
            return [f"verdict {result}, own test says {own}"]
        if result:
            return []
        return certificate_problems(
            criterion, extension, payload.get("certificate", ""), bundles, names, rankings, levels
        )

    goal, method = question.argv[4], question.argv[6]
    flag = payload.get("exists")
    if code != expected_code[flag]:
        return [f"exit {code} disagrees with exists={flag}"]
    problems = []
    if goal == "nddpr" and flag != checks.nddpr_should_exist(rankings):
        problems.append(f"nddpr exists={flag} against the characterization")
    if goal == "nidpr" and method != "condition" and n == 2:
        if flag != checks.nidpr_two_agents_should_exist(rankings):
            problems.append(f"two-agent nidpr exists={flag} against the rule")
    if goal == "nidpr" and method == "condition" and code == 0:
        problems.append("the nidpr condition answered 0")
    if "allocation" in payload and not flag:
        problems.append(f"exists={flag} but an allocation is attached")
    elif "allocation" in payload:
        bundles = [payload["allocation"].get(name, []) for name in names]
        if not checks.is_partition(bundles, profile["items"]):
            problems.append("allocation is not a partition of the items")
        elif goal == "nddef":
            if not checks.envy_free(bundles, levels, "ndd"):
                problems.append("allocation is not NDD-envy-free")
        elif not all(checks.proportional(b, n, lv, goal[:3]) for b, lv in zip(bundles, levels)):
            problems.append(f"allocation is not {goal[:3].upper()}-proportional")
    elif flag and method != "condition":
        problems.append("positive answer without an allocation")
    return problems


def certificate_problems(criterion, extension, text, bundles, names, rankings, levels):
    """Re-check the certificate printed with a negative verdict."""
    n = len(names)
    if criterion == "pr":
        head, _, utility = text.partition("; refuting utility: ")
        agent = names.index(head.split()[1])
        if checks.proportional(bundles[agent], n, levels[agent], extension):
            return [f"certificate names {names[agent]}, whose share is proportional"]
        if extension not in checks.DOMINATES:
            return []
        if not utility:
            return ["negative proportionality verdict without a refuting utility"]
        values = checks.parse_utility(dict(pair.split("=") for pair in utility.split(", ")))
        return checks.refutation_problems(
            values, rankings[agent], extension, list(bundles[agent]) * n, list(levels[agent])
        )
    if criterion == "ef":
        envious, _, envied = text.partition(" envies ")
        i, j = names.index(envious), names.index(envied)
        if checks.DOMINATES[extension](bundles[i], bundles[j], levels[i]):
            return [f"{envious} does not envy {envied}"]
        return []
    if text.startswith("dominated by "):
        dominator = json.loads(text[len("dominated by "):])
        return checks.dominator_problems(
            bundles, [dominator.get(name, []) for name in names], rankings
        )
    if text.startswith("swap improves both: "):
        words = text[len("swap improves both: "):].split()
        # "<agent> trades <item> for <item>+<item> of <agent>"
        single_agent, single_item = names.index(words[0]), words[2]
        pair, pair_agent = tuple(words[4].split("+")), names.index(words[6])
        return checks.swap_problems(bundles, rankings, single_agent, single_item, pair_agent, pair)
    return [f"negative Pareto verdict with certificate {text!r}"]
