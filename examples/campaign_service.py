"""The Table III bootloader campaign, served: submit one fault campaign
per registered protection scheme to a campaign service and print each
tally as it streams back.

The workload is the paper's macro-benchmark boot decision: the device
bootloader's ``accept_signature(v, r)`` — the single protected branch
standing between an *invalid* signature and a booted image.  Every trial
injects one fault and asks: did the attacker force ``0xB007`` (boot) out
of a comparison that should say ``0xDEAD``?  ``wrong-result`` outcomes
with exit code ``0xB007`` are successful forges; the AN-coded prototype
is expected to trap or CFI-detect what defeats plain CFI and the
duplication tree.

Run:  python examples/campaign_service.py            # full bootloader sweep
      python examples/campaign_service.py --quick    # integer_compare smoke
      python examples/campaign_service.py --quick --verify
                                                     # + assert service ==
                                                     #   direct fork run

The script hosts its own in-process service (HTTP on a random localhost
port, fresh store); point ``ServiceClient`` at any ``python -m
repro.service serve`` instance to do the same against a shared daemon.
"""

import argparse
import sys

from repro.crypto.image import (
    BOOT_REJECT,
    bootloader_initializers,
    bootloader_params,
    bootloader_source,
    build_signed_image,
)
from repro.programs import load_source
from repro.service import BackgroundService
from repro.service.jobs import AttackSpec, CampaignJob, report_from_dict
from repro.toolchain import CompileConfig, Workbench, list_schemes

#: An (r, s) pair that is *not* a valid signature for the image: v != r,
#: so the honest boot decision is BOOT_REJECT and any boot is a forge.
BOGUS_SIG = (0x00C0FFEE & 0xFFFFF, 0x000BEEF1 & 0xFFFFF)

ATTACKS = (
    AttackSpec.make("branch-flip", max_branches=8),
    AttackSpec.make("repeated-branch-flip"),
    AttackSpec.make("operand-corruption", regs=[0, 1], bits=[0, 16], occurrence=2),
)


def bootloader_jobs() -> list[CampaignJob]:
    image = build_signed_image(b"SERVICE-DEMO-FW!" * 4)
    initializers = bootloader_initializers(image)
    source = bootloader_source()
    hex_pairs = tuple(
        (name, data.hex()) for name, data in sorted(initializers.items())
    )
    return [
        CampaignJob(
            source=source,
            function="accept_signature",
            args=BOGUS_SIG,
            config=CompileConfig(
                scheme=scheme, params=bootloader_params(), cfi_policy="edge"
            ),
            attacks=ATTACKS,
            initializers=hex_pairs,
            title=f"bootloader/{scheme}",
        )
        for scheme in list_schemes()
    ]


def quick_jobs() -> list[CampaignJob]:
    return [
        CampaignJob(
            source=load_source("integer_compare"),
            function="integer_compare",
            args=(7, 8),
            config=CompileConfig(scheme=scheme),
            attacks=ATTACKS,
            title=f"integer_compare/{scheme}",
        )
        for scheme in list_schemes()
    ]


def stream_tallies(client, jobs) -> dict[str, dict]:
    """Submit everything up front, then stream each job's events."""
    results = {}
    for job in jobs:
        submitted = client.submit(job)
        print(
            f"submitted {job.title:<40} -> {submitted['job_id']}"
            + ("  (deduplicated)" if submitted["deduplicated"] else "")
        )
    for job in jobs:
        print(f"\n=== {job.title} ===")
        for event in client.stream(job.job_id()):
            if event["event"] == "attack-finished":
                attack = event["result"]
                forged = sum(
                    1 for code in attack["wrong_codes"] if code != BOOT_REJECT
                )
                print(
                    f"  {attack['attack']:<22} trials={attack['trials']:<4} "
                    f"outcomes={attack['outcomes']}"
                    + (f"  FORGED x{forged}" if forged else "")
                )
            elif event["event"] == "failed":
                print(f"  FAILED: {event['error']}")
        results[job.title] = client.results(job.job_id())
    return results


def verify_against_direct(results, jobs) -> int:
    """Cross-check every service report against a direct in-process
    CampaignBuilder.run(engine="fork") of the same campaign."""
    from repro.service.jobs import ATTACK_SUITES, report_to_dict

    workbench = Workbench()
    failures = 0
    for job in jobs:
        builder = workbench.campaign(
            job.source,
            job.function,
            list(job.args),
            job.config,
            initializers={
                name: bytes.fromhex(data) for name, data in job.initializers
            }
            or None,
        )
        for spec in job.attacks:
            builder.attack(ATTACK_SUITES[spec.suite], **spec.kwargs)
        direct = builder.run(engine="fork")
        served = report_from_dict(results[job.title]["report"])
        if report_to_dict(direct) == report_to_dict(served):
            print(f"verified {job.title}: service == direct run")
        else:
            print(f"MISMATCH for {job.title}")
            failures += 1
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="integer_compare instead of the full bootloader (CI smoke)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="assert service results match a direct CampaignBuilder.run",
    )
    parser.add_argument(
        "--trial-workers",
        type=int,
        default=0,
        help="processes per runner for trial sharding",
    )
    args = parser.parse_args()

    jobs = quick_jobs() if args.quick else bootloader_jobs()
    print(
        f"{len(jobs)} campaign jobs (schemes: {', '.join(list_schemes())})"
    )
    with (
        BackgroundService(runners=2, trial_workers=args.trial_workers) as svc,
        svc.client() as client,
    ):
        status = client.service_status()
        print(
            f"service {status['service']} v{status['version']} "
            f"on http://{svc.address_str}\n"
        )
        results = stream_tallies(client, jobs)
        if args.verify:
            print()
            return 1 if verify_against_direct(results, jobs) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
