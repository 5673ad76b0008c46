"""Golden CLI transcripts: for each invocation, the exit code and the sha256
of its stdout, its stderr and, with ``--out``, the file it wrote.

The digests pin every byte the CLI emits, in text and in JSON, verdicts,
budget stops and usage errors alike.  Each case runs in one shared
directory holding its input files, named by relative paths, so that no
message carries a temporary path.  After a deliberate change of output,
``PYTHONPATH=src python tests/test_cli_golden.py`` prints the table anew;
review its diff case by case.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from xyreg.cli import main


def entry(n, i, j):
    return " + ".join(f"x[{i},{k}]*y[{k},{j}]" for k in range(1, n + 1))


INPUTS = {
    "full2.txt": "# all four entries of the 2x2 product\n"
                 + "".join(entry(2, i, j) + "\n" for i in (1, 2) for j in (1, 2)),
    "full3.txt": "".join(entry(3, i, j) + "\n" for i in (1, 2, 3) for j in (1, 2, 3)),
    "gens.txt": "x[1,1] - y[1,1]\ny[1,1]^2\n",
    "col1.txt": "7*x[1,1]*y[1,1] + 7*x[1,2]*y[2,1]\nx[2,1]*y[1,1] + x[2,2]*y[2,1]\n",
    "half.txt": "1/2*x[1,1]*y[1,1] + x[1,2]*y[2,1]\nx[2,1]*y[1,2] - 3*x[2,2]*y[2,2]\n",
    "bad.txt": "x[9,9]\n",
    "empty.txt": "# nothing here\n0\n",
    "degenerate.txt": entry(2, 1, 1) + "\n5\n",
    "notjson.json": "{not json",
}

# the invocations, each recorded in GOLDEN
CASES = """\
gen --n 2
gen --n 4
gen --n 4 --format json
gen --n 3 --field rat --format json
gen --n 2 --out gen2.txt
certify --n 4
certify --n 4 --format json
certify --n 3 --field rat
certify --n 2 --format json --out cert2.json
oracle --n 3
oracle --n 3 --format json
oracle --n 4 --method colon
oracle --n 4 --method colon --format json
oracle --n 3 --method colon --field rat --format json
oracle --n 2 --input full2.txt
oracle --n 2 --input full2.txt --format json
oracle --n 2 --input full2.txt --method colon
oracle --n 2 --input full2.txt --method colon --format json
oracle --n 3 --input full3.txt
oracle --n 3 --input full3.txt --method colon
oracle --n 3 --input full3.txt --method colon --format json
oracle --n 2 --input degenerate.txt
oracle --n 2 --input degenerate.txt --method colon --format json
oracle --n 2 --input half.txt --method colon --field rat
oracle --n 2 --budget-pairs 1
oracle --n 2 --budget-degree 2 --format json
oracle --n 3 --method colon --budget-pairs 5
oracle --n 2 --field rat
oracle --n 2 --budget-pairs 0
oracle --n 2 --input bad.txt
oracle --n 2 --input missing.txt
oracle --n 2 --prime 1000000000039
counterexample
counterexample --format json
counterexample --field gfp --prime 2
counterexample --field gfp --format json
search --n 2
search --n 2 --format json
search --n 3
search --n 3 --method colon --format json
search --n 3 --budget-pairs 3
search --n 2 --field rat
gb --n 2 --input gens.txt --order lex
gb --n 2 --input gens.txt --order lex --format json
gb --n 2 --input col1.txt --order paper
gb --n 2 --input full2.txt --order grevlex --format json
gb --n 2 --input full2.txt --field rat --format json
gb --n 2 --input half.txt --field rat
gb --n 2 --input full2.txt --budget-pairs 1
gb --n 2
gb --n 2 --input empty.txt
gb --n 2 --input missing.txt
recheck --input cert3.json
recheck --input cert3.json --format json
recheck --input forged3.json
recheck --input forged3.json --format json
recheck --input notjson.json
recheck
gen --n 1
gen
gen --n 3 --prime 10
gen --n 3 --prime 3
bogus-command
certify --n 2 --order lex
gen --n 2 --method colon
counterexample --n 2
recheck --n 2
certify --n 2 --format json --out nodir/cert.json
"""

# (argv, exit code, sha256 of stdout, of stderr, of the --out file or None)
GOLDEN = [
    (('gen', '--n', '2'), 0,
     '7b7bc8f0233a95b7a2412ea97ee704255fdfa7828f692831ef441fa66af559f5',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('gen', '--n', '4'), 0,
     '92c0263efa7244a746d171afa90a501834fb3cfdd83ed3e8a15ada82acdd3db8',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('gen', '--n', '4', '--format', 'json'), 0,
     'fda6e1c23a630ac91f67b72ce9012b83566d02ed5377ca28ef0163afe11135f3',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('gen', '--n', '3', '--field', 'rat', '--format', 'json'), 0,
     '7d8b5b74e6e13028e1f7d9feed2dabdb3b4fcfc8f8c890d0a94ab931fb3fb51c',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('gen', '--n', '2', '--out', 'gen2.txt'), 0,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '7b7bc8f0233a95b7a2412ea97ee704255fdfa7828f692831ef441fa66af559f5'),
    (('certify', '--n', '4'), 0,
     'fa7563ff8ad0b7e3852f5b8fef3488644414c623f9eb62c764f9ed400044327b',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('certify', '--n', '4', '--format', 'json'), 0,
     '923fe2f4debc14769b4dd7209f4b2903627d107617a2f2a426e1c92b2eff36f2',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('certify', '--n', '3', '--field', 'rat'), 0,
     '3a1e9b118ea5f396e27e2eb8224b62d42611c4686f607dd56559effae3d39424',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('certify', '--n', '2', '--format', 'json', '--out', 'cert2.json'), 0,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'd0269ba83a7d32754e3d50d74b79550b2b9ac616115b17e7ccbe34bf1cfe64c1'),
    (('oracle', '--n', '3'), 0,
     '8a20b76c44e2d659afdb30371ca3cf165412fd6f5a2a67addaebf770992b1504',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '3', '--format', 'json'), 0,
     '92cc16372b69e21f95e6b19ffd983e17fd6e9e1698358117343b7f0921abed67',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '4', '--method', 'colon'), 0,
     '59616f4d59dce11ea093bba882be4826689b986c85f25d84b2d801913fe35e16',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '4', '--method', 'colon', '--format', 'json'), 0,
     'f3ccd6381982df290ad632e92ac455dfcd3c80589e38b5f9ee7705e6bb85eaa2',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '3', '--method', 'colon', '--field', 'rat', '--format', 'json'), 0,
     '939db6bffcfb56464f481e49e9bc8adee98b7f671e2a3c554c0958d39b0066c8',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '2', '--input', 'full2.txt'), 1,
     'e6c91e6d0e35978a1794ad5a1cde3fd7eeead669e8cd364c59fbf760c4e9be44',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '2', '--input', 'full2.txt', '--format', 'json'), 1,
     '4a4094e48ece0da9b5fd3d90670dcfc540b494c0fc4cccc6aec562c2593d7d19',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '2', '--input', 'full2.txt', '--method', 'colon'), 1,
     '470a6b5ce7d5691812acdf265b648362f0e2cb2dae4880b2e926df9b1182e4a7',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '2', '--input', 'full2.txt', '--method', 'colon', '--format', 'json'), 1,
     '415391340b85bf056dbfa4994e11b0b4c290e10a5b3fe43fd57c304fae7eb710',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '3', '--input', 'full3.txt'), 1,
     '1e09d44b745d0ff930727fb0b478adb208eff1d6fd64917c091ad03e30bef2ec',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '3', '--input', 'full3.txt', '--method', 'colon'), 1,
     '59a590336b8d236403a428797ade2550ef18707b95a687a235d6b0e46b590071',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '3', '--input', 'full3.txt', '--method', 'colon', '--format', 'json'), 1,
     '4cf37da09a3598164bd2c0bcfa25453c330f831b6dabd538cb50abfc450cc0f7',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '2', '--input', 'degenerate.txt'), 1,
     '2291fb2c2be7cff0f8c80bebec1c013cb5090a67c7464a7ccdd08c0ec121d8cd',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '2', '--input', 'degenerate.txt', '--method', 'colon', '--format', 'json'), 1,
     '0fe9e31d96641551eca1b7ed1b508a0bb235dd966fdaea82447c858e5a6b8571',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '2', '--input', 'half.txt', '--method', 'colon', '--field', 'rat'), 0,
     'c18400835567222b45bd721379e14bdb60abf1252a696439506dbbe62fa264ff',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('oracle', '--n', '2', '--budget-pairs', '1'), 3,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'e11d88f634d577121972571dbe0a859bae69ad8c60a7b3eb94648c303e79820d',
     None),
    (('oracle', '--n', '2', '--budget-degree', '2', '--format', 'json'), 3,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'e0713cb20c75da718d8950b6ba527e8f7e331ffb1caab16464bd2b2ea452fa10',
     None),
    (('oracle', '--n', '3', '--method', 'colon', '--budget-pairs', '5'), 3,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'f0f75ffbbc096d71b762385d27d38abd1c905ae81343913b5222bf2f5e57011b',
     None),
    (('oracle', '--n', '2', '--field', 'rat'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '127bdd727d0328bad4b1887047e7f5a06d15f94330c9172eacb6de26da7d18b7',
     None),
    (('oracle', '--n', '2', '--budget-pairs', '0'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '048b9afbc298b614622ad5054de3346ba434809b0d89b5d58c986197a0e9feac',
     None),
    (('oracle', '--n', '2', '--input', 'bad.txt'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '52facbbb8c0a7e02b4c438ce4e6dc52dd99aea82cd1f48eda7f87bdd9a7c5840',
     None),
    (('oracle', '--n', '2', '--input', 'missing.txt'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'b7aa2bea4d013c006cbf69debccb282caec48b97f85c86af186afaaeba2aa927',
     None),
    (('oracle', '--n', '2', '--prime', '1000000000039'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '77fe4b7c2a4d2457c0ce1447e84d31c59ef3dc3136e40921d806fc14e5b57f2e',
     None),
    (('counterexample',), 0,
     'dd540d73aaa4833fca70e0c090b2ed0f3fb26cddadb87f51b776321dc8f97bba',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('counterexample', '--format', 'json'), 0,
     '1916382becf93873aa3818cccdc7e695ec3fcf4776363886c77e94df6cd0af69',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('counterexample', '--field', 'gfp', '--prime', '2'), 0,
     'dd540d73aaa4833fca70e0c090b2ed0f3fb26cddadb87f51b776321dc8f97bba',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('counterexample', '--field', 'gfp', '--format', 'json'), 0,
     '1916382becf93873aa3818cccdc7e695ec3fcf4776363886c77e94df6cd0af69',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('search', '--n', '2'), 0,
     'b8a81200ef4b5b78346d383d7c7f8b50fd599733d96d3332f7adee8007ba2e22',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('search', '--n', '2', '--format', 'json'), 0,
     'd9bb762646668174d84d1a644d1648b9f8b698bd5c6494bac846318b6ccd6e94',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('search', '--n', '3'), 0,
     '7f7c02ec27114f4a3e3017b8ea15db3723df047dafa571eca7a01243f6769ff7',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('search', '--n', '3', '--method', 'colon', '--format', 'json'), 0,
     'e79e2eaad454605102a7840a8340fc0a8a66d469e429fee4cacb287ec4bdae6a',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('search', '--n', '3', '--budget-pairs', '3'), 3,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '58891ee62e8ca4171a6bdc02a0bc22a00f236a1f600aab2269e80c89d891d60f',
     None),
    (('search', '--n', '2', '--field', 'rat'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '127bdd727d0328bad4b1887047e7f5a06d15f94330c9172eacb6de26da7d18b7',
     None),
    (('gb', '--n', '2', '--input', 'gens.txt', '--order', 'lex'), 0,
     'dd47f8030f56855525bb198d9021922ea79b8427916497cf63abc6019b8b441f',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('gb', '--n', '2', '--input', 'gens.txt', '--order', 'lex', '--format', 'json'), 0,
     'a8a6df12c7f70c0022b85bbd103f500ffd232d1966337f1f0b232172f362c266',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('gb', '--n', '2', '--input', 'col1.txt', '--order', 'paper'), 0,
     '198ea24c5ea9de9d402c27343fa55d43b6140114875471be03e46db612441d35',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('gb', '--n', '2', '--input', 'full2.txt', '--order', 'grevlex', '--format', 'json'), 0,
     'ff79e60154c4b492c9ecc7d128dbd20e6af79aa3dae8aee9c5eaf0d339ec46ec',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('gb', '--n', '2', '--input', 'full2.txt', '--field', 'rat', '--format', 'json'), 0,
     '788d754c0d3930629cf2c7781b1149e933eea422908ab1ca86b47c11c8a85d0a',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('gb', '--n', '2', '--input', 'half.txt', '--field', 'rat'), 0,
     'd44f2cac5d9ba0e32fd6d843a58a342f315fc8914e702928ea441a32056fdcd3',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('gb', '--n', '2', '--input', 'full2.txt', '--budget-pairs', '1'), 3,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'e11d88f634d577121972571dbe0a859bae69ad8c60a7b3eb94648c303e79820d',
     None),
    (('gb', '--n', '2'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '0c2483979fe4b137530f1b4eb45f72b7941e61c9036359736a202d65398a01c4',
     None),
    (('gb', '--n', '2', '--input', 'empty.txt'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '816032de3efb4667798f3da9e478c21a42e767543c97882ada0b1e105c7ba520',
     None),
    (('gb', '--n', '2', '--input', 'missing.txt'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'b7aa2bea4d013c006cbf69debccb282caec48b97f85c86af186afaaeba2aa927',
     None),
    (('recheck', '--input', 'cert3.json'), 0,
     '0cf3139c0a1e6d2c1b751931e72140548dd8572c398c82ff74051d978540d095',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('recheck', '--input', 'cert3.json', '--format', 'json'), 0,
     '89e432ff3014873d533ba93cd7b5bae559337245289e5e1115ab9b8e18ed61c8',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('recheck', '--input', 'forged3.json'), 1,
     '074fe0e2ff4a47f36d0a4bd30dc3b410e2ccba6a6103e6b0b34d993b7db946ef',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('recheck', '--input', 'forged3.json', '--format', 'json'), 1,
     '2c8ceffd94bf9fa92a67adeceac719537f860eaeaa37e69ed97402096c1df38f',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    (('recheck', '--input', 'notjson.json'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '0ff55156d89f76264f3f7cf2b3d93e17831268327d1592eebfcef8011eb5a818',
     None),
    (('recheck',), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '930770ede04cdef1a851238e63e5c60d2fc20b69c7d732a10fde9f0aaf78bb88',
     None),
    (('gen', '--n', '1'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '416876e867ec23b23a8546143c9e999dcbdf6c30a8a4efb55e8ef977e838a710',
     None),
    (('gen',), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '90d609bab628c1e90d9b1d395373c6f4aa8514f5a840a2d2349d9adaa3710930',
     None),
    (('gen', '--n', '3', '--prime', '10'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '6be425c643487ba20bb802c730614b6c7ea162add0d17a239bb9e3a1a42738ef',
     None),
    (('gen', '--n', '3', '--prime', '3'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '97db14c3291eea61652b79cfbc4f4f2674bf61a5d07380037966307f92deeab9',
     None),
    (('bogus-command',), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'c1009836232fcda1c28959b1586609aff2f68fa77bb7cf54ddcd5d71875ae81d',
     None),
    (('certify', '--n', '2', '--order', 'lex'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'cd9b380460a776fc9e193d5873bd58b1a07eaf2f5cd398b8afd7725b25a239a5',
     None),
    (('gen', '--n', '2', '--method', 'colon'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '23e9e80507dbbe0c421630d50715996629bc8428b4b1bb02a5fa8a74c4d51eda',
     None),
    (('counterexample', '--n', '2'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '5c6a56dfd5d9cc60578ce31341cdb228fd6d944b59d90e1142046007fb76f5c1',
     None),
    (('recheck', '--n', '2'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '5c6a56dfd5d9cc60578ce31341cdb228fd6d944b59d90e1142046007fb76f5c1',
     None),
    (('certify', '--n', '2', '--format', 'json', '--out', 'nodir/cert.json'), 2,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'c3f5a208b580bce1dfb5e20e52cf568e41365192f6938fc4ed730f3870210239',
     None),
]


def prepare(directory):
    """Write the input files and a genuine and a forged n=3 certificate."""
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", "--n", "3", "--format", "json", "--out",
                     str(directory / "cert3.json")]) == 0
    forged = json.loads((directory / "cert3.json").read_text(encoding="utf-8"))
    forged["steps"].pop()
    (directory / "forged3.json").write_text(json.dumps(forged), encoding="utf-8")


def sha(data):
    return hashlib.sha256(data).hexdigest()


def transcript(argv):
    """(exit code, stdout digest, stderr digest, --out file digest or None)
    of one in-process run in the current directory."""
    out_file = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out_file is not None and out_file.exists():
        out_file.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    written = sha(out_file.read_bytes()) if out_file is not None and out_file.exists() else None
    return (code, sha(out.getvalue().encode("utf-8")), sha(err.getvalue().encode("utf-8")),
            written)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    prepare(directory)
    return directory


def test_every_case_is_recorded():
    assert [" ".join(argv) for argv, *_ in GOLDEN] == CASES.splitlines()


@pytest.mark.parametrize("argv, code, out, err, written", GOLDEN,
                         ids=[" ".join(case[0]) for case in GOLDEN])
def test_cli_transcript(argv, code, out, err, written, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert transcript(argv) == (code, out, err, written)


def test_the_table_holds_again_in_reverse_order(workdir, monkeypatch):
    # ``prepare`` has run ``main`` in this process, so every case, usage
    # errors included, goes through a parser an earlier call has used
    monkeypatch.chdir(workdir)
    assert [transcript(argv) for argv, *_ in reversed(GOLDEN)] == \
        [tuple(expected) for _, *expected in reversed(GOLDEN)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        prepare(Path(tmp))
        os.chdir(tmp)
        print("GOLDEN = [")
        for line in CASES.splitlines():
            argv = tuple(line.split())
            code, out, err, written = transcript(argv)
            print(f"    ({argv!r}, {code},\n     {out!r},\n     {err!r},\n     {written!r}),")
        print("]")
