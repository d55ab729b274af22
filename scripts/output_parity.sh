#!/bin/sh
# Run every subcommand on fixed inputs and list the sha256 of each output
# file, stdout included. Run it on two checkouts and diff the listings to
# show that a change keeps the outputs byte for byte:
#
#   scripts/output_parity.sh SRC_DIR OUT_DIR > listing.txt
#
# SRC_DIR is the checkout's src/ directory; OUT_DIR must not exist yet.
set -eu
src=$(cd "$1" && pwd)
mkdir "$2"
cd "$2"     # relative paths, so that printed paths match across checkouts

# $pin, when set, is a command that run() starts the CLI under; $blas is
# the environment's BLAS thread setting, pinned to one thread unless a run
# asks for numpy's default
pin=
blas="OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1"
run() {
    name=$1
    shift
    mkdir -p "$name"
    env $blas PYTHONPATH="$src" \
        $pin python3 -m feddiar.cli "$@" --out-dir "$name" > "$name/stdout"
}

# same DIR RERUN: exit 1 unless RERUN holds DIR's outputs byte for byte (the
# stdout of synth and sweep names its directory, so RERUN's name is put back
# to DIR's there first), then remove RERUN, so that the listing depends on
# neither the CPU count nor the BLAS setting
same() {
    sed "s|$2|$1|g" "$2/stdout" > "$2.stdout"
    mv "$2.stdout" "$2/stdout"
    if ! diff -r "$1" "$2" > /dev/null; then
        echo "$2: outputs differ from those of $1" >&2
        exit 1
    fi
    rm -r "$2"
}

run synth synth --seed 7 --num-speakers 4 --prefix conv
wav=synth/conv.wav
truth=synth/conv.truth.json
# about 3 minutes: the noise profile's quietest frames span many chunks
run synth-long synth --seed 11 --num-speakers 4 --min-changes 60 --max-changes 60 \
    --prefix long
long_wav=synth-long/long.wav
long_truth=synth-long/long.truth.json
# about 10 minutes: greedy clustering's cost grows fastest at this length
run synth-xl synth --seed 13 --min-changes 200 --max-changes 200 --prefix xl
xl_wav=synth-xl/xl.wav
xl_truth=synth-xl/xl.truth.json
# 8 kHz, where 25 ms frames take a 256-point FFT instead of 512
mkdir synth-8k
PYTHONPATH="$src" python3 -c '
import dataclasses, json, sys
from feddiar.frontend import save_wav
from feddiar.pipeline import truth_to_dict
from feddiar.synth import random_conversation_spec, synth_conversation
spec = random_conversation_spec(num_speakers=3, seed=5)
audio, truth = synth_conversation(dataclasses.replace(spec, sample_rate_hz=8000))
save_wav(sys.argv[1] + "/conv8k.wav", audio)
with open(sys.argv[1] + "/conv8k.truth.json", "w") as fh:
    json.dump(truth_to_dict(truth), fh, sort_keys=True, indent=2)
' synth-8k
wav8k=synth-8k/conv8k.wav
truth8k=synth-8k/conv8k.truth.json

run fedsim-non_iid fedsim --mode non_iid
run fedsim-iid fedsim --mode iid
run fedsim-centralized fedsim --mode centralized
# centralized is one client in a group of one, whatever the counts asked for
run fedsim-centralized-3-clients fedsim --mode centralized --num-clients 3 --group-size 2
same fedsim-centralized fedsim-centralized-3-clients
run fedsim-hidden fedsim --hidden 16,8
model=fedsim-non_iid/fed_model.npz

cat > tuned.cfg <<CFG
slide_frames = 30
grow_frames = 20
lambda = 1.5
delta_k = 60
min_region_frames = 8
noise_percentile = 0.2
CFG
tuned="--method bic --window-frames 100 --stride-fraction 0.4 --config tuned.cfg"
echo "noise_percentile = 0.9" > noise90.cfg
echo "threshold_db = 30" > thr30.cfg
echo "threshold_db = 80" > thr80.cfg

for variant in default tuned; do
    if [ "$variant" = tuned ]; then flags=$tuned; else flags=; fi
    run "segment-$variant" segment --audio "$wav" $flags
    run "cluster-$variant" cluster --audio "$wav" $flags
    run "identify-$variant" identify --audio "$wav" --model "$model" $flags
    run "diarize-$variant" diarize --audio "$wav" --model "$model" \
        --truth "$truth" $flags
done

# a WAV whose name holds a space: its RTTM file id takes _ for the space
mkdir spaced
cp "$wav" "spaced/my talk.wav"
run identify-spaced identify --audio "spaced/my talk.wav" --model "$model"

for variant in default noise90 thr30 thr80; do
    if [ "$variant" = default ]; then flags=; else flags="--config $variant.cfg"; fi
    run "segment-long-$variant" segment --audio "$long_wav" $flags
    run "diarize-long-$variant" diarize --audio "$long_wav" --model "$model" \
        --truth "$long_truth" $flags
done

run segment-xl segment --audio "$xl_wav"
run diarize-xl diarize --audio "$xl_wav" --model "$model" --truth "$xl_truth"

run segment-8k segment --audio "$wav8k"
run diarize-8k diarize --audio "$wav8k" --model "$model" --truth "$truth8k"

run sweep sweep --num-conversations 2
run eval eval --truth "$truth" --detected segment-default/change_points.csv

# The same runs on one CPU, where each spectral pass, each round's clients
# and each conversation's turns run on one thread, must give the same bytes
# as those on every CPU; so must runs with numpy's BLAS left at its default
# thread count, which the CLI pins to one thread itself.
pin="taskset -c 0"
run synth-long-1cpu synth --seed 11 --num-speakers 4 --min-changes 60 --max-changes 60 \
    --prefix long
run segment-long-default-1cpu segment --audio "$long_wav"
run diarize-long-default-1cpu diarize --audio "$long_wav" --model "$model" \
    --truth "$long_truth"
run fedsim-non_iid-1cpu fedsim --mode non_iid
run fedsim-iid-1cpu fedsim --mode iid
run sweep-1cpu sweep --num-conversations 2
pin=
blas="-u OMP_NUM_THREADS -u OPENBLAS_NUM_THREADS"
run diarize-long-default-unpinned diarize --audio "$long_wav" --model "$model" \
    --truth "$long_truth"
run sweep-unpinned sweep --num-conversations 2
for dir in synth-long segment-long-default diarize-long-default fedsim-non_iid \
           fedsim-iid sweep; do
    same "$dir" "$dir-1cpu"
done
same diarize-long-default diarize-long-default-unpinned
same sweep sweep-unpinned

find . -type f -print0 | LC_ALL=C sort -z | xargs -0 sha256sum
