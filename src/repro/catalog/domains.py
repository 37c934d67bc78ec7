"""The domain/host universe the traffic generator samples from.

Every host the simulation knows about is a :class:`SiteSpec`: a
hostname with a traffic weight, a URL-template mix, a category, and
tags recording ground truth (e.g. ``suspected`` marks hosts whose
registered domain the Syrian policy blocks outright).

Weights are calibrated so that, after the policy engine runs, the
per-domain allowed/censored shares reproduce the paper's Table 4,
Table 8, Table 10 and Table 13 (see EXPERIMENTS.md for the mapping).
Weights are expressed in percent of browsing volume; the long-tail
builder tops the universe up to 100.

URL templates may contain ``{id}`` (random integer), ``{hex}`` (random
hex token) and ``{word}`` (random query word) placeholders, filled at
generation time by :class:`UrlPattern` from one uniform each.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.catalog.categories import Category as C
from repro.catalog.words import (
    QUERY_WORDS,
    SUSPECTED_STEMS,
    SUSPECTED_TLDS,
    TAIL_STEMS,
    TAIL_TLDS,
)


@dataclass(frozen=True, slots=True)
class UrlTemplate:
    """One URL shape a host serves, with a sampling weight."""

    path: str
    query: str = ""
    weight: float = 1.0
    content_type: str = "text/html"
    agent: str | None = None  # user-agent family override (None = browser)
    method: str = "GET"
    #: Marked templates (keyword-bearing URLs): the generator steers
    #: most of them to a small "risk pool" of users, reproducing the
    #: paper's finding that only 1.57 % of users are censored while
    #: being far more active than average (Fig. 4).
    risky: bool = False


@dataclass(frozen=True, slots=True)
class SiteSpec:
    """A hostname with its traffic profile."""

    host: str
    category: str
    weight: float  # percent of browsing volume
    templates: tuple[UrlTemplate, ...] = (UrlTemplate("/"),)
    https_share: float = 0.0
    tags: frozenset = field(default_factory=frozenset)

    def tagged(self, tag: str) -> bool:
        """True when this site carries *tag*."""
        return tag in self.tags


T = UrlTemplate


def _tags(*names: str) -> frozenset:
    return frozenset(names)


# ---------------------------------------------------------------------------
# Template helpers shared across sites
# ---------------------------------------------------------------------------

_PAGE_ASSETS = (
    T("/", weight=3),
    T("/style/main.css", weight=1, content_type="text/css"),
    T("/js/app.js", weight=1, content_type="application/javascript"),
    T("/images/banner-{id}.jpg", weight=2, content_type="image/jpeg"),
)

# The Facebook JS SDK cross-domain channel file is ``xd_proxy.php``;
# social-plugin URLs embed it in the ``channel_url`` query parameter,
# which is what trips the Syrian ``proxy`` keyword filter (Section 6).
_XD_CHANNEL = "channel_url=http%3A%2F%2Fstatic.ak.facebook.com%2Fconnect%2Fxd_proxy.php%23cb%3D{hex}"

# Facebook social-plugin templates; weights follow the paper's Table 15
# (fraction of censored facebook.com traffic per plugin element).
FACEBOOK_PLUGIN_TEMPLATES: tuple[UrlTemplate, ...] = (
    T("/plugins/like.php", f"href=http%3A%2F%2F{{word}}.com%2F&{_XD_CHANNEL}", weight=43.04),
    T("/extern/login_status.php", f"api_key={{hex}}&extern=2&{_XD_CHANNEL}", weight=38.99),
    T("/plugins/likebox.php", f"id={{id}}&{_XD_CHANNEL}", weight=4.78),
    T("/plugins/send.php", f"href=http%3A%2F%2F{{word}}.com%2F&{_XD_CHANNEL}", weight=4.35),
    T("/plugins/comments.php", f"href=http%3A%2F%2F{{word}}.com%2F&{_XD_CHANNEL}", weight=3.36),
    T("/fbml/fbjs_ajax_proxy.php", "__a=1&signature={hex}", weight=2.64),
    T("/connect/canvas_proxy.php", "app_id={id}", weight=2.51),
    T("/ajax/proxy.php", "url=http%3A%2F%2Fapps.facebook.com%2F{word}", weight=0.10),
    T("/platform/page_proxy.php", "page_id={id}", weight=0.09),
    T("/plugins/facepile.php", f"href=http%3A%2F%2F{{word}}.com%2F&{_XD_CHANNEL}", weight=0.04),
)

_FACEBOOK_CLEAN_TEMPLATES: tuple[UrlTemplate, ...] = (
    T("/home.php", weight=18),
    T("/profile.php", "id={id}", weight=14),
    T("/photo.php", "fbid={id}&set=a.{id}", weight=10),
    T("/", weight=8),
    T("/ajax/chat/buddy_list.php", "user={id}&__a=1", weight=8),
    T("/ajax/presence/update.php", "__a=1", weight=6),
    T("/friends/", "filter=all", weight=4),
    T("/groups/{id}/", weight=3),
    T("/notes/{word}/{id}", weight=2),
    T("/ajax/typeahead.php", "value={word}&__a=1", weight=3),
)

# Share of facebook.com requests that hit plugin endpoints; calibrated
# so censored facebook traffic ≈ 8 % of facebook requests (Table 4:
# 1.62 M censored vs 17.8 M allowed).
FACEBOOK_PLUGIN_SHARE = 0.078


def _facebook_templates() -> tuple[UrlTemplate, ...]:
    clean_total = sum(t.weight for t in _FACEBOOK_CLEAN_TEMPLATES)
    plugin_total = sum(t.weight for t in FACEBOOK_PLUGIN_TEMPLATES)
    clean_scale = (1.0 - FACEBOOK_PLUGIN_SHARE) / clean_total
    plugin_scale = FACEBOOK_PLUGIN_SHARE / plugin_total
    scaled = [
        T(t.path, t.query, t.weight * clean_scale, t.content_type)
        for t in _FACEBOOK_CLEAN_TEMPLATES
    ]
    scaled += [
        T(t.path, t.query, t.weight * plugin_scale, t.content_type,
          risky=True)
        for t in FACEBOOK_PLUGIN_TEMPLATES
    ]
    return tuple(scaled)


def _mixed(clean: tuple[UrlTemplate, ...], marked: tuple[UrlTemplate, ...],
           marked_share: float) -> tuple[UrlTemplate, ...]:
    """Blend clean and keyword-marked templates at a target share."""
    clean_total = sum(t.weight for t in clean)
    marked_total = sum(t.weight for t in marked)
    out = [
        T(t.path, t.query, t.weight * (1 - marked_share) / clean_total,
          t.content_type, t.agent, t.method)
        for t in clean
    ]
    out += [
        T(t.path, t.query, t.weight * marked_share / marked_total,
          t.content_type, t.agent, t.method, risky=True)
        for t in marked
    ]
    return tuple(out)


# ---------------------------------------------------------------------------
# The named universe
# ---------------------------------------------------------------------------

def _named_sites() -> list[SiteSpec]:
    sites: list[SiteSpec] = []
    add = sites.append

    # --- search / portals -------------------------------------------------
    add(SiteSpec(
        "www.google.com", C.SEARCH_ENGINES, 5.9,
        _mixed(
            clean=(
                T("/search", "q={word}&hl=ar", weight=30),
                T("/complete/search", "q={word}&client=hp", weight=18),
                T("/", weight=10),
                T("/images", "q={word}", weight=8),
                T("/url", "sa=t&url=http%3A%2F%2F{word}.com", weight=6),
            ),
            # Google-toolbar autofill endpoint: the path contains the
            # blacklisted keyword ``proxy`` (Section 5.4's collateral
            # damage example, 4.85 % of censored requests in D_sample).
            marked=(
                T("/tbproxy/af/query", "client=navclient-auto&q={word}",
                  agent="google-toolbar"),
            ),
            marked_share=0.0078,
        ),
        https_share=0.02,
    ))
    add(SiteSpec("google.com", C.SEARCH_ENGINES, 0.7,
                 (T("/", weight=1), T("/search", "q={word}", weight=2))))
    add(SiteSpec("news.google.com", C.GENERAL_NEWS, 0.35,
                 (T("/news", "ned=ar_me", weight=1),)))
    add(SiteSpec("maps.google.com", C.SEARCH_ENGINES, 0.35,
                 (T("/maps", "q={word}", weight=1),)))
    add(SiteSpec("www.gstatic.com", C.CONTENT_SERVER, 3.31, (
        T("/images", "q=tbn:{hex}", weight=5, content_type="image/jpeg"),
        T("/hp/{hex}.png", weight=3, content_type="image/png"),
        T("/og/{hex}.js", weight=2, content_type="application/javascript"),
    )))
    add(SiteSpec("www.msn.com", C.PORTAL_SITES, 1.28,
                 (T("/", weight=3), T("/ar-sy/", weight=2),
                  T("/news/{word}-{id}", weight=2))))
    add(SiteSpec("arabia.msn.com", C.PORTAL_SITES, 0.30,
                 (T("/", weight=1), T("/news/{id}", weight=1))))
    add(SiteSpec("www.yahoo.com", C.PORTAL_SITES, 0.85,
                 (T("/", weight=3), T("/news/{word}-{id}.html", weight=2))))
    add(SiteSpec(
        "mail.yahoo.com", C.PORTAL_SITES, 0.45,
        _mixed(
            clean=(T("/mc/welcome", "ymv=1", weight=3),
                   T("/dc/launch", ".rand={id}", weight=2)),
            # Yahoo webmail attachment fetcher carries a ``.proxy``
            # parameter — keyword collateral damage.
            marked=(T("/dc/launch", ".rand={id}&.proxy=ws", weight=1),),
            marked_share=0.11,
        ),
    ))

    # --- adult / entertainment -------------------------------------------
    add(SiteSpec("www.xvideos.com", C.PORNOGRAPHY, 3.35, (
        T("/video{id}/{word}_{word}", weight=5),
        T("/thumbs/{hex}.jpg", weight=4, content_type="image/jpeg"),
        T("/", weight=1),
    )))

    # --- facebook ----------------------------------------------------------
    add(SiteSpec("www.facebook.com", C.SOCIAL_NETWORKING, 2.50,
                 _facebook_templates(), https_share=0.010,
                 tags=_tags("osn", "facebook")))
    add(SiteSpec("ar-ar.facebook.com", C.SOCIAL_NETWORKING, 0.27,
                 _facebook_templates(), tags=_tags("osn", "facebook")))
    add(SiteSpec("profile.ak.fbcdn.net", C.CONTENT_SERVER, 1.10, (
        T("/hprofile-ak-snc4/{id}_{id}_q.jpg", weight=1, content_type="image/jpeg"),
    )))
    add(SiteSpec("photos-a.ak.fbcdn.net", C.CONTENT_SERVER, 0.69, (
        T("/hphotos-ak-snc6/{id}_{id}_n.jpg", weight=1, content_type="image/jpeg"),
    )))
    add(SiteSpec(
        "static.ak.fbcdn.net", C.CONTENT_SERVER, 0.60,
        _mixed(
            clean=(T("/rsrc.php/v1/y{hex}/r/{hex}.css", weight=2, content_type="text/css"),
                   T("/rsrc.php/v1/z{hex}/r/{hex}.js", weight=2,
                     content_type="application/javascript")),
            # The JS SDK channel file itself lives on the static CDN.
            marked=(T("/connect/xd_proxy.php", "version=3", weight=1),),
            marked_share=0.058,
        ),
    ))

    # --- microsoft / updates ----------------------------------------------
    add(SiteSpec("www.microsoft.com", C.SOFTWARE_HARDWARE, 1.60,
                 (T("/", weight=1), T("/downloads/{word}.aspx", weight=2),
                  T("/isapi/redir.dll", "prd=ie&pver=6", weight=1))))
    add(SiteSpec("update.microsoft.com", C.SOFTWARE_HARDWARE, 0.79, (
        T("/windowsupdate/v6/default.aspx", weight=1,
          agent="windows-update"),
    )))
    add(SiteSpec("www.windowsupdate.com", C.SOFTWARE_HARDWARE, 1.40, (
        T("/msdownload/update/v3/static/trustedr/en/{hex}.crt",
          weight=2, agent="windows-update", content_type="application/octet-stream"),
        T("/v9/windowsupdate/redir/muv4wuredir.cab", "{id}", weight=1,
          agent="windows-update", content_type="application/octet-stream"),
    )))
    add(SiteSpec("download.windowsupdate.com", C.SOFTWARE_HARDWARE, 0.81, (
        T("/msdownload/update/software/secu/2011/07/{word}_{hex}.exe",
          weight=1, agent="bits", content_type="application/octet-stream"),
    )))

    # --- analytics / ads ----------------------------------------------------
    add(SiteSpec("www.google-analytics.com", C.WEB_ADS, 1.78, (
        T("/__utm.gif", "utmwv=5.1.5&utmn={id}&utmhn={word}.com",
          weight=4, content_type="image/gif"),
        T("/ga.js", weight=2, content_type="application/javascript"),
    )))
    add(SiteSpec("ad.doubleclick.net", C.WEB_ADS, 1.00, (
        T("/adj/{word}.{word}/;sz=728x90;ord={id}", weight=1,
          content_type="application/javascript"),
    )))
    add(SiteSpec("googleads.g.doubleclick.net", C.WEB_ADS, 0.61, (
        T("/pagead/ads", "client=ca-pub-{id}&format=728x90", weight=1),
    )))
    add(SiteSpec(
        "www.trafficholder.com", C.WEB_ADS, 0.040,
        _mixed(
            clean=(T("/", weight=1),),
            # Traffic-broker redirector whose query names its proxy
            # pool — keyword collateral damage (top censored domain in
            # the 6–8 am window of Table 5).
            marked=(T("/in.php", "wm={id}&cat={word}&target=proxy", weight=1),),
            marked_share=0.60,
        ),
    ))
    add(SiteSpec(
        "apps.conduitapps.com", C.WEB_ADS, 0.020,
        _mixed(
            clean=(T("/api/manifest", "ctid=CT{id}", weight=1),),
            marked=(T("/toolbar/proxy", "ctid=CT{id}&cmd=gadget", weight=1),),
            marked_share=0.40,
        ),
    ))

    # --- IM / voip (heavily censored) --------------------------------------
    add(SiteSpec("www.skype.com", C.INSTANT_MESSAGING, 0.026, (
        T("/", weight=2), T("/intl/ar/home", weight=1),
        T("/go/downloading", "source=lightinstaller", weight=2),
    ), https_share=0.05, tags=_tags("suspected", "im")))
    add(SiteSpec("ui.skype.com", C.INSTANT_MESSAGING, 0.023, (
        T("/ui/0/5.3.0.120/en/getlatestversion", "ver=5.3.0.120&notify=1",
          weight=3, agent="skype-updater"),
        T("/ui/0/5.3.0.120/en/go/help.faq.installer", weight=1,
          agent="skype-updater"),
    ), tags=_tags("suspected", "im", "updater")))
    add(SiteSpec("download.skype.com", C.INSTANT_MESSAGING, 0.010, (
        T("/msi/SkypeSetup_5.3.0.120.msi", weight=1, agent="skype-updater",
          content_type="application/octet-stream"),
    ), tags=_tags("suspected", "im")))
    add(SiteSpec("jumblo.com", C.INSTANT_MESSAGING, 0.0031, (
        T("/", weight=1), T("/download/jumblo.exe", weight=1,
                            content_type="application/octet-stream"),
        T("/rates.php", "country={word}", weight=1),
    ), tags=_tags("suspected", "im")))

    # --- live.com: mail/login allowed, messenger gateway blocked -----------
    add(SiteSpec("mail.live.com", C.PORTAL_SITES, 0.75,
                 (T("/default.aspx", "wa=wsignin1.0", weight=2),
                  T("/mail/inboxlight.aspx", "n={id}", weight=3))))
    add(SiteSpec("login.live.com", C.PORTAL_SITES, 0.42,
                 (T("/login.srf", "wa=wsignin1.0&ct={id}", weight=1),),
                 https_share=0.10))
    add(SiteSpec("messenger.live.com", C.INSTANT_MESSAGING, 0.060, (
        T("/", weight=2),
        T("/gateway/gateway.dll", "Action=poll&SessionID={id}", weight=5,
          agent="msn"),
    ), tags=_tags("blocked-host", "im")))
    add(SiteSpec("ceipmsn.com", C.INTERNET_SERVICES, 0.080,
                 _mixed(
                     clean=(T("/FSD/1/{hex}", "os=winxp", weight=1, agent="msn"),),
                     # MSN customer-experience pings report the client's
                     # proxy configuration in the query string.
                     marked=(T("/FSD/1/{hex}", "os=winxp&conn=proxy", weight=1,
                               agent="msn"),),
                     marked_share=0.225,
                 )))

    # --- streaming ----------------------------------------------------------
    add(SiteSpec("www.metacafe.com", C.STREAMING_MEDIA, 0.171, (
        T("/watch/{id}/{word}_{word}/", weight=5),
        T("/thumb/{id}.jpg", weight=3, content_type="image/jpeg"),
        T("/", weight=1),
    ), tags=_tags("suspected", "streaming")))
    add(SiteSpec("www.youtube.com", C.STREAMING_MEDIA, 1.20, (
        T("/watch", "v={hex}", weight=5),
        T("/results", "search_query={word}", weight=2),
        T("/", weight=1),
    )))
    add(SiteSpec("i.ytimg.com", C.CONTENT_SERVER, 0.30, (
        T("/vi/{hex}/default.jpg", weight=1, content_type="image/jpeg"),
    )))
    add(SiteSpec("upload.youtube.com", C.STREAMING_MEDIA, 0.0018, (
        T("/", weight=1),
        T("/my_videos_upload", weight=2),
    ), tags=_tags("redirect-host")))
    add(SiteSpec("www.dailymotion.com", C.STREAMING_MEDIA, 0.015, (
        T("/video/{hex}_{word}-{word}", weight=3), T("/", weight=1),
    ), tags=_tags("suspected", "streaming")))

    # --- reference / wikis ---------------------------------------------------
    add(SiteSpec("upload.wikimedia.org", C.EDUCATION_REFERENCE, 0.030, (
        T("/wikipedia/commons/thumb/{hex}/{word}.jpg", weight=1,
          content_type="image/jpeg"),
    ), tags=_tags("suspected")))
    add(SiteSpec("commons.wikimedia.org", C.EDUCATION_REFERENCE, 0.011, (
        T("/wiki/File:{word}_{id}.jpg", weight=1),
    ), tags=_tags("suspected")))
    add(SiteSpec("ar.wikipedia.org", C.EDUCATION_REFERENCE, 0.55,
                 (T("/wiki/{word}", weight=4), T("/", weight=1))))
    add(SiteSpec("en.wikipedia.org", C.EDUCATION_REFERENCE, 0.30,
                 (T("/wiki/{word}", weight=1),)))

    # --- games ---------------------------------------------------------------
    add(SiteSpec(
        "zynga.com", C.GAMES, 0.10,
        _mixed(
            clean=(T("/", weight=1), T("/games/{word}", weight=2)),
            marked=(T("/poker/proxy/xd_receiver.htm", weight=1),),
            marked_share=0.05,
        ),
    ))
    add(SiteSpec(
        "fb-0.poker.zynga.com", C.GAMES, 0.30,
        _mixed(
            clean=(T("/poker/assets/{hex}.swf", weight=1,
                     content_type="application/x-shockwave-flash"),),
            # Zynga's Facebook-canvas games relay API calls through an
            # ``ajax/proxy`` endpoint — keyword collateral damage.
            marked=(T("/poker/ajax/proxy.php", "method=getTable&uid={id}",
                      weight=1),),
            marked_share=0.155,
        ),
    ))

    # --- news (allowed and suspected) ---------------------------------------
    add(SiteSpec("www.aljazeera.net", C.GENERAL_NEWS, 0.14,
                 (T("/news/{word}/{id}", weight=3), T("/", weight=1))))
    add(SiteSpec("sharek.aljazeera.net", C.GENERAL_NEWS, 0.0008,
                 (T("/", weight=1), T("/upload", weight=1)),
                 tags=_tags("redirect-host")))
    add(SiteSpec("www.mbc.net", C.ENTERTAINMENT, 0.020,
                 (T("/", weight=1), T("/programs/{word}", weight=2))))
    add(SiteSpec("competition.mbc.net", C.ENTERTAINMENT, 0.0009,
                 (T("/", weight=1), T("/vote.php", "id={id}", weight=1)),
                 tags=_tags("redirect-host")))
    add(SiteSpec(
        "www.bbc.co.uk", C.GENERAL_NEWS, 0.10,
        _mixed(
            clean=(T("/news/world-middle-east-{id}", weight=3),
                   T("/arabic/", weight=2)),
            # Coverage URLs naming Israel trip the ``israel`` keyword.
            marked=(T("/news/world-middle-east-{id}/israel-{word}", weight=1),),
            marked_share=0.025,
        ),
    ))
    add(SiteSpec("www.aawsat.com", C.GENERAL_NEWS, 0.0069, (
        T("/details.asp", "section={id}&article={id}", weight=3),
        T("/", weight=1),
    ), tags=_tags("suspected", "news")))
    add(SiteSpec("all4syria.info", C.GENERAL_NEWS, 0.0040,
                 (T("/web/archives/{id}", weight=2), T("/", weight=1)),
                 tags=_tags("suspected", "news")))
    add(SiteSpec("www.islammemo.cc", C.GENERAL_NEWS, 0.0020,
                 (T("/akhbar/arab-news/{id}", weight=1),),
                 tags=_tags("suspected", "news")))
    add(SiteSpec("www.alquds.co.uk", C.GENERAL_NEWS, 0.0030,
                 (T("/index.asp", "fname={hex}", weight=1),),
                 tags=_tags("suspected", "news")))
    add(SiteSpec("www.free-syria.com", C.GENERAL_NEWS, 0.0010,
                 (T("/loadarticle.php", "id={id}", weight=1),),
                 tags=_tags("suspected", "news")))
    add(SiteSpec("new-syria.com", C.GENERAL_NEWS, 0.0010,
                 (T("/", weight=2), T("/forum/{id}", weight=1)),
                 tags=_tags("suspected", "news")))
    add(SiteSpec("www.panet.co.il", C.GENERAL_NEWS, 0.0080,
                 (T("/online/articles/{id}", weight=3), T("/", weight=1)),
                 tags=_tags("il")))
    add(SiteSpec("www.ynet.co.il", C.GENERAL_NEWS, 0.0040,
                 (T("/articles/0,7340,L-{id},00.html", weight=1),),
                 tags=_tags("il")))
    add(SiteSpec("www.haaretz.co.il", C.GENERAL_NEWS, 0.0020,
                 (T("/news/{word}/{id}", weight=1),), tags=_tags("il")))
    add(SiteSpec("www.israelnationalnews.com", C.GENERAL_NEWS, 0.0040,
                 (T("/News/News.aspx/{id}", weight=1),),
                 tags=_tags("keyword-host")))

    # --- syrian / regional ----------------------------------------------------
    add(SiteSpec(
        "www.mtn.com.sy", C.INTERNET_SERVICES, 0.050,
        _mixed(
            clean=(T("/", weight=2), T("/portal/news.php", "id={id}", weight=2)),
            # The operator's WAP gateway routes handset traffic through
            # an explicit ``proxy`` path.
            marked=(T("/wap/proxy/portal", "msisdn={id}", weight=1),),
            marked_share=0.04,
        ),
    ))
    add(SiteSpec("www.syriatel.sy", C.INTERNET_SERVICES, 0.030,
                 (T("/", weight=1), T("/offers/{id}", weight=1))))
    add(SiteSpec("www.sana.sy", C.GENERAL_NEWS, 0.020,
                 (T("/ara/{id}/2011/08/{id}.htm", weight=1),)))

    # --- shopping / misc suspected ---------------------------------------------
    add(SiteSpec("www.amazon.com", C.ONLINE_SHOPPING, 0.0084, (
        T("/dp/B{hex}", weight=3), T("/s", "k={word}", weight=2),
        T("/", weight=1),
    ), tags=_tags("suspected")))
    add(SiteSpec("www.jeddahbikers.com", C.FORUM, 0.0028,
                 (T("/vb/showthread.php", "t={id}", weight=3),
                  T("/vb/", weight=1)),
                 tags=_tags("suspected", "forum")))
    add(SiteSpec("www.islamway.com", C.RELIGION, 0.0019,
                 (T("/", weight=1), T("/lesson.php", "id={id}", weight=2)),
                 tags=_tags("suspected")))

    # --- social networks (Section 6) --------------------------------------------
    add(SiteSpec("twitter.com", C.SOCIAL_NETWORKING, 0.375,
                 _mixed(
                     clean=(T("/", weight=2), T("/{word}", weight=3),
                            T("/statuses/{id}", weight=2)),
                     marked=(T("/{word}", "utm_source=proxy", weight=1),),
                     marked_share=0.00006,
                 ),
                 tags=_tags("osn")))
    add(SiteSpec("www.linkedin.com", C.SOCIAL_NETWORKING, 0.0257,
                 _mixed(
                     clean=(T("/in/{word}{id}", weight=2), T("/", weight=1)),
                     marked=(T("/analytics/", "type=proxy&id={id}", weight=1),),
                     marked_share=0.037,
                 ),
                 tags=_tags("osn")))
    add(SiteSpec("badoo.com", C.SOCIAL_NETWORKING, 0.0019,
                 (T("/", weight=1), T("/{id}/", weight=2),
                  T("/signup/", weight=1)),
                 tags=_tags("suspected", "osn")))
    add(SiteSpec("www.netlog.com", C.SOCIAL_NETWORKING, 0.0012,
                 (T("/go/explore", weight=2), T("/{word}{id}", weight=1)),
                 tags=_tags("suspected", "osn")))
    add(SiteSpec("www.hi5.com", C.SOCIAL_NETWORKING, 0.0285,
                 _mixed(
                     clean=(T("/friend/p{id}--profile--html", weight=3),
                            T("/", weight=1)),
                     marked=(T("/friend/games/proxy.html", "gid={id}", weight=1),),
                     marked_share=0.014,
                 ),
                 tags=_tags("osn")))
    add(SiteSpec("www.skyrock.com", C.SOCIAL_NETWORKING, 0.00145,
                 _mixed(
                     clean=(T("/blog/", weight=1),),
                     marked=(T("/common/proxy/iframe.php", "u={hex}", weight=1),),
                     marked_share=0.30,
                 ),
                 tags=_tags("osn")))
    add(SiteSpec("www.flickr.com", C.SOCIAL_NETWORKING, 0.051,
                 (T("/photos/{word}{id}/", weight=3), T("/", weight=1)),
                 tags=_tags("osn")))
    add(SiteSpec("www.ning.com", C.SOCIAL_NETWORKING, 0.0056,
                 (T("/", weight=1), T("/groups/{word}", weight=1)),
                 tags=_tags("osn")))
    add(SiteSpec("www.meetup.com", C.SOCIAL_NETWORKING, 0.00002,
                 (T("/{word}-{word}/", weight=1),), tags=_tags("osn")))
    add(SiteSpec("www.myspace.com", C.SOCIAL_NETWORKING, 0.030,
                 (T("/{word}{id}", weight=1),), tags=_tags("osn")))
    add(SiteSpec("www.tumblr.com", C.SOCIAL_NETWORKING, 0.050,
                 (T("/tagged/{word}", weight=1),), tags=_tags("osn")))
    add(SiteSpec("instagram.com", C.SOCIAL_NETWORKING, 0.020,
                 (T("/p/{hex}/", weight=1),), tags=_tags("osn")))
    add(SiteSpec("pinterest.com", C.SOCIAL_NETWORKING, 0.020,
                 (T("/pin/{id}/", weight=1),), tags=_tags("osn")))
    add(SiteSpec("vk.com", C.SOCIAL_NETWORKING, 0.010,
                 (T("/id{id}", weight=1),), tags=_tags("osn")))
    add(SiteSpec("www.last.fm", C.SOCIAL_NETWORKING, 0.010,
                 (T("/music/{word}", weight=1),), tags=_tags("osn")))
    add(SiteSpec("www.deviantart.com", C.SOCIAL_NETWORKING, 0.020,
                 (T("/art/{word}-{id}", weight=1),), tags=_tags("osn")))
    add(SiteSpec("www.tagged.com", C.SOCIAL_NETWORKING, 0.010,
                 (T("/profile/{word}{id}", weight=1),), tags=_tags("osn")))
    add(SiteSpec("plus.google.com", C.SOCIAL_NETWORKING, 0.015,
                 (T("/{id}/posts", weight=1),), tags=_tags("osn")))
    add(SiteSpec("www.orkut.com", C.SOCIAL_NETWORKING, 0.005,
                 (T("/Main", weight=1),), tags=_tags("osn")))
    add(SiteSpec("www.salamworld.com", C.SOCIAL_NETWORKING, 0.0005,
                 (T("/", weight=1),), tags=_tags("osn")))
    add(SiteSpec("www.muslimup.com", C.SOCIAL_NETWORKING, 0.0005,
                 (T("/", weight=1),), tags=_tags("osn")))

    # --- anti-censorship vendors (keyword-named hosts) -------------------------
    add(SiteSpec("hotspotshield.com", C.ANONYMIZER, 0.0045, (
        T("/", weight=1), T("/download/", weight=2),
    ), tags=_tags("keyword-host", "anonymizer")))
    add(SiteSpec("www.hotsptshld.com", C.CONTENT_SERVER, 0.0168, (
        # Hotspot Shield's update CDN: paths name the product, tripping
        # the ``hotspotshield`` keyword on every request.
        T("/hotspotshield/update", "v=1.57&os=win", weight=3,
          agent="java"),
        T("/hotspotshield/dl/hss-157-install.exe", weight=1,
          content_type="application/octet-stream", agent="java"),
    ), tags=_tags("anonymizer")))
    add(SiteSpec("www.ultrareach.com", C.ANONYMIZER, 0.0058, (
        T("/", weight=1), T("/download_en.htm", weight=1),
    ), tags=_tags("keyword-host", "anonymizer")))
    add(SiteSpec("ultrasurf.us", C.ANONYMIZER, 0.0038, (
        T("/", weight=1), T("/download/u.zip", weight=1,
                            content_type="application/zip"),
    ), tags=_tags("keyword-host", "anonymizer")))
    add(SiteSpec("www.anchorfree.com", C.ANONYMIZER, 0.0030,
                 (T("/", weight=1),), tags=_tags("anonymizer")))
    add(SiteSpec("www.dongtaiwang.com", C.ANONYMIZER, 0.0020,
                 (T("/loc/download.php", "v=en", weight=1),),
                 tags=_tags("anonymizer")))

    # --- software portals ------------------------------------------------------
    add(SiteSpec(
        "www.arabsoftware.com", C.SOFTWARE_HARDWARE, 0.050,
        _mixed(
            clean=(T("/", weight=1), T("/download/{word}-setup.exe", weight=2,
                                       content_type="application/octet-stream"),
                   T("/category/{word}", weight=1)),
            # Download pages for circumvention tools carry the tool
            # names — keyword evidence outside the blocked domains.
            marked=(T("/download/ultrasurf-10.52.zip", weight=1.2,
                      content_type="application/zip"),
                    T("/download/ultrareach-wujie.zip", weight=0.8,
                      content_type="application/zip"),
                    T("/search", "q=hotspotshield", weight=0.6),
                    T("/tag/proxy-tools", weight=0.5)),
            marked_share=0.25,
        ),
    ))

    # --- CDNs ---------------------------------------------------------------
    add(SiteSpec(
        "d24n15hnbwhuhn.cloudfront.net", C.CONTENT_SERVER, 0.30,
        _mixed(
            clean=(T("/assets/{hex}.js", weight=3,
                     content_type="application/javascript"),
                   T("/img/{hex}.png", weight=2, content_type="image/png")),
            marked=(T("/widgets/proxy-frame.html", "origin={word}.com", weight=1),),
            marked_share=0.03,
        ),
    ))
    add(SiteSpec(
        "lh3.googleusercontent.com", C.CONTENT_SERVER, 0.35,
        _mixed(
            clean=(T("/{hex}/{hex}/s512/{word}.jpg", weight=1,
                     content_type="image/jpeg"),),
            marked=(T("/gadgets/proxy", "url=http%3A%2F%2F{word}.com&container=ig",
                      weight=1),),
            marked_share=0.02,
        ),
    ))
    add(SiteSpec("static.akamaihd.net", C.CONTENT_SERVER, 0.25, (
        T("/media/{hex}.flv", weight=1, content_type="video/x-flv"),
    )))
    add(SiteSpec("webcache.googleusercontent.com", C.SEARCH_ENGINES, 0.00065, (
        # Google cache (Section 7.4): cached copies of otherwise
        # censored pages are fetched through Google's own host.
        T("/search", "q=cache:{hex}:www.panet.co.il/online/articles/{id}", weight=3),
        T("/search", "q=cache:{hex}:aawsat.com/details.asp", weight=2),
        T("/search", "q=cache:{hex}:www.facebook.com/Syrian.Revolution", weight=1),
        T("/search", "q=cache:{hex}:www.free-syria.com/loadarticle.php", weight=1),
        T("/search", "q=cache:{hex}:{word}.com/{word}", weight=12),
        # The rare hits that still trip the keyword filter:
        T("/search", "q=cache:{hex}:www.israel-{word}.com/{word}", weight=0.05),
    ), tags=_tags("google-cache")))

    return sites


# ---------------------------------------------------------------------------
# Synthetic populations
# ---------------------------------------------------------------------------

def synthetic_suspected_sites(count: int = 84, seed: int = 20110803) -> list[SiteSpec]:
    """Synthetic always-blocked domains completing the 105-domain list.

    The paper recovers 105 domains for which no request is ever allowed
    (Section 5.4); we name ~20 of them explicitly above and fill the
    rest with synthetic news/forum-flavoured domains, categorized with
    the Table 9 mixture.
    """
    rng = np.random.default_rng(seed)
    pool: list[str] = []
    for category, weight in C.SUSPECTED_POOL:
        pool.extend([category] * weight)
    sites = []
    for i in range(count):
        stem = SUSPECTED_STEMS[i % len(SUSPECTED_STEMS)]
        tld = SUSPECTED_TLDS[(i // len(SUSPECTED_STEMS)) % len(SUSPECTED_TLDS)]
        host = f"www.{stem}{i}.{tld}"
        category = pool[int(rng.integers(len(pool)))]
        # Zipf-flavoured small weights; the whole synthetic pool adds
        # up to ~0.045 % of traffic, matching the long tail of the
        # paper's Table 9 (news/forum/NA suspected domains).
        weight = 0.0024 / (1 + i * 0.12)
        sites.append(SiteSpec(
            host, category, weight,
            (T("/", weight=1), T("/news/{id}", weight=2),
             T("/article.php", "id={id}", weight=1)),
            tags=_tags("suspected", "synthetic"),
        ))
    return sites


def synthetic_tail_sites(count: int = 1200, total_weight: float = 48.0,
                         seed: int = 42) -> list[SiteSpec]:
    """The long-tail domain population (never censored).

    Zipf-distributed weights reproduce the power-law request-per-domain
    distribution of Fig. 2.
    """
    rng = np.random.default_rng(seed)
    # Shifted Zipf: the shift keeps the heaviest tail domain well below
    # the named top sites (google et al. must stay on top of Table 4).
    ranks = np.arange(1, count + 1, dtype=float) + 6.0
    weights = 1.0 / ranks**1.1
    weights *= total_weight / weights.sum()
    categories = (
        C.GENERAL_NEWS, C.ENTERTAINMENT, C.ONLINE_SHOPPING, C.FORUM,
        C.EDUCATION_REFERENCE, C.INTERNET_SERVICES, C.TECHNICAL,
        C.TRAVEL, C.GAMES, C.PORTAL_SITES, C.STREAMING_MEDIA,
    )
    sites = []
    for i in range(count):
        stem = TAIL_STEMS[i % len(TAIL_STEMS)]
        tld = TAIL_TLDS[(i // len(TAIL_STEMS)) % len(TAIL_TLDS)]
        host = f"www.{stem}{i}.{tld}"
        category = categories[int(rng.integers(len(categories)))]
        sites.append(SiteSpec(
            host, category, float(weights[i]),
            (T("/", weight=3), T("/page/{id}.html", weight=3),
             T("/img/{hex}.jpg", weight=2, content_type="image/jpeg"),
             T("/details.asp", "section={id}&article={id}", weight=1),
             T("/search", "q={word}", weight=1)),
            tags=_tags("tail"),
        ))
    return sites


def build_domain_universe(
    tail_count: int = 1200,
    suspected_count: int = 84,
    include_anonymizers: bool = True,
) -> list[SiteSpec]:
    """Assemble the complete site universe.

    The result is deterministic for given parameters; the traffic
    generator and the categorizer both consume it.  The long tail
    absorbs exactly the weight the calibrated sites leave, so each
    named site's weight IS its percentage of browsing volume.
    """
    sites = _named_sites()
    sites.extend(synthetic_suspected_sites(suspected_count))
    if include_anonymizers:
        from repro.catalog.anonymizers import anonymizer_sites

        sites.extend(anonymizer_sites())
    calibrated_weight = sum(site.weight for site in sites)
    tail_weight = max(20.0, 100.0 - calibrated_weight)
    sites.extend(synthetic_tail_sites(tail_count, total_weight=tail_weight))
    hosts = [site.host for site in sites]
    if len(hosts) != len(set(hosts)):
        seen: set[str] = set()
        dupes = {h for h in hosts if h in seen or seen.add(h)}
        raise ValueError(f"duplicate hosts in universe: {sorted(dupes)[:5]}")
    return sites


#: Placeholder syntax inside URL templates.
_PLACEHOLDER = re.compile(r"\{(id|hex|word)\}")

_WORDS = np.array(QUERY_WORDS, dtype=object)


def placeholder_values(kind: str, u: np.ndarray) -> list:
    """One ``{id}``/``{hex}``/``{word}`` value per uniform in *u*
    (``{hex}`` as an int its template formats as eight hex digits)."""
    if kind == "id":
        return (10**4 + (u * (10**9 - 10**4)).astype(np.int64)).tolist()
    if kind == "hex":
        return (u * 16**8).astype(np.int64).tolist()
    return _WORDS[(u * len(_WORDS)).astype(np.intp)].tolist()


class UrlPattern:
    """A template's path and query, compiled for column fills.

    Each placeholder, in order through the path and then the query,
    takes the next uniform slot, so repeated placeholders get distinct
    values.  A part without placeholders fills to its one shared
    string.
    """

    def __init__(self, path: str, query: str):
        kinds: list[str] = []

        def compile_part(text: str) -> str:
            pieces = _PLACEHOLDER.split(text)
            out = []
            for index, piece in enumerate(pieces):
                if index % 2 == 0:
                    out.append(piece.replace("{", "{{").replace("}", "}}"))
                else:
                    spec = ":08x" if piece == "hex" else ""
                    out.append(f"{{{len(kinds)}{spec}}}")
                    kinds.append(piece)
            return "".join(out)

        self.path, self.query = path, query
        self._formats = (compile_part(path), compile_part(query))
        self._split = len(_PLACEHOLDER.findall(path))
        self.kinds = tuple(kinds)

    def fill(self, slots: np.ndarray) -> tuple[list | str, list | str]:
        """``(paths, queries)`` for one row of *slots* uniforms per
        request; an unfilled part comes back as its string."""
        values = [
            placeholder_values(kind, slots[:, slot])
            for slot, kind in enumerate(self.kinds)
        ]
        path_format, query_format = self._formats
        paths = (
            list(map(path_format.format, *values)) if self._split
            else self.path
        )
        queries = (
            list(map(query_format.format, *values))
            if len(self.kinds) > self._split else self.query
        )
        return paths, queries
